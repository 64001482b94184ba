#include "services/rules.hpp"

#include "core/ascii.hpp"

namespace edgewatch::services {

using core::ascii_lower;

std::string_view RuleEngine::normalize_into(std::string_view domain, char* stack,
                                            std::size_t stack_size, std::string& heap) {
  std::size_t n = domain.size();
  if (n > 0 && domain[n - 1] == '.') --n;
  if (n <= stack_size) {
    for (std::size_t i = 0; i < n; ++i) stack[i] = ascii_lower(domain[i]);
    return {stack, n};
  }
  heap.resize(n);
  for (std::size_t i = 0; i < n; ++i) heap[i] = ascii_lower(domain[i]);
  return heap;
}

void RuleEngine::add_exact(std::string_view domain, std::string_view service) {
  char stack[256];
  std::string heap;
  const auto name = normalize_into(domain, stack, sizeof stack, heap);
  exact_.insert_or_assign(intern(name), intern(service));
}

void RuleEngine::add_suffix(std::string_view suffix, std::string_view service) {
  char stack[256];
  std::string heap;
  const auto name = normalize_into(suffix, stack, sizeof stack, heap);
  const auto key = intern(name);
  const auto svc = intern(service);
  suffix_index_.insert_or_assign(key, svc);
  // An empty suffix can never match: lookups stop before the probe becomes
  // empty. Keep it out of the trie (it is still counted above).
  if (key.empty()) return;
  std::uint32_t cur = 0;
  for_each_label_rtl(key, [&](std::string_view label) {
    auto it = trie_[cur].children.find(label);
    if (it == trie_[cur].children.end()) {
      const auto next = static_cast<std::uint32_t>(trie_.size());
      trie_.emplace_back();
      // `label` already points into the pool (a subrange of `key`), so the
      // child key needs no separate interning.
      trie_[cur].children.emplace(label, next);
      cur = next;
    } else {
      cur = it->second;
    }
  });
  trie_[cur].service = svc;
}

bool RuleEngine::add_regex(std::string_view pattern, std::string_view service) {
  auto compiled = Regex::compile(pattern);
  if (!compiled) return false;
  regex_.push_back({std::move(*compiled), intern(service), extract_required_literal(pattern)});
  return true;
}

std::string RuleEngine::extract_required_literal(std::string_view pattern) {
  // Alternation and groups make "this literal must appear" unprovable
  // without real analysis; those patterns just run the regex every time.
  if (pattern.find('|') != std::string_view::npos ||
      pattern.find('(') != std::string_view::npos) {
    return {};
  }
  std::string best;
  std::string run;
  auto commit = [&] {
    if (run.size() > best.size()) best = run;
    run.clear();
  };
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    const char c = pattern[i];
    switch (c) {
      case '\\':  // escaped char is a plain literal
        if (++i < pattern.size()) run.push_back(pattern[i]);
        break;
      case '^':
      case '$':
      case '.':  // matches anything: breaks the run
        commit();
        break;
      case '[': {  // character class: breaks the run; skip to its ']'
        commit();
        ++i;
        while (i < pattern.size() && pattern[i] != ']') {
          if (pattern[i] == '\\') ++i;
          ++i;
        }
        break;
      }
      case '*':
      case '?':  // preceding atom may appear zero times: drop it
        if (!run.empty()) run.pop_back();
        commit();
        break;
      case '+':  // preceding atom appears at least once: keep it
        commit();
        break;
      default:
        run.push_back(c);
        break;
    }
  }
  commit();
  return best;
}

std::optional<std::string_view> RuleEngine::classify(std::string_view domain) const {
  char stack[256];
  std::string heap;
  const auto name = normalize_into(domain, stack, sizeof stack, heap);
  if (name.empty()) return std::nullopt;

  if (auto it = exact_.find(name); it != exact_.end()) return it->second;

  // Walk the reversed-label trie; the deepest node with a service is the
  // longest — most specific — matching suffix, exactly what probing every
  // label boundary from the left used to find first.
  if (trie_.size() > 1) {
    std::string_view best{};
    std::uint32_t cur = 0;
    bool alive = true;
    for_each_label_rtl(name, [&](std::string_view label) {
      if (!alive) return;
      const auto it = trie_[cur].children.find(label);
      if (it == trie_[cur].children.end()) {
        alive = false;
        return;
      }
      cur = it->second;
      if (trie_[cur].service.data() != nullptr) best = trie_[cur].service;
    });
    if (best.data() != nullptr) return best;
  }

  for (const auto& rule : regex_) {
    if (!rule.required.empty() && name.find(rule.required) == std::string_view::npos) continue;
    if (rule.re.search(name)) return rule.service;
  }
  return std::nullopt;
}

}  // namespace edgewatch::services
