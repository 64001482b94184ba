#include "dns/message.hpp"

#include "core/ascii.hpp"

namespace edgewatch::dns {

namespace {

constexpr std::size_t kMaxNameLength = 255;
constexpr int kMaxPointerHops = 16;  // loop protection

/// Decode a (possibly compressed) name starting at the reader's cursor into
/// `out`, lower-cased, without the trailing dot normalize_name() strips.
/// Consumes exactly the in-place bytes of the name (pointers are followed
/// without moving the primary cursor past them).
bool read_name(core::ByteReader& r, std::string& out) {
  out.clear();
  int hops = 0;
  // After the first pointer, continue on a secondary cursor.
  core::ByteReader follow = r;
  core::ByteReader* cur = &r;
  while (true) {
    const std::uint8_t len = cur->u8();
    if (!cur->ok()) return false;
    if (len == 0) break;
    if ((len & 0xc0) == 0xc0) {
      const std::uint8_t lo = cur->u8();
      if (!cur->ok()) return false;
      if (++hops > kMaxPointerHops) return false;
      const std::size_t target = (static_cast<std::size_t>(len & 0x3f) << 8) | lo;
      if (cur == &r) {
        follow = r;  // capture the buffer; position set below
        cur = &follow;
      }
      // Pointers must go strictly backwards in well-formed messages; we only
      // require them to stay in-bounds and bound the hop count.
      cur->seek(target);
      continue;
    }
    if ((len & 0xc0) != 0) return false;  // reserved label types
    const auto label = cur->string(len);
    if (!cur->ok()) return false;
    if (!out.empty()) out.push_back('.');
    core::append_ascii_lower(out, label);
    if (out.size() > kMaxNameLength) return false;
  }
  if (!out.empty() && out.back() == '.') out.pop_back();
  return true;
}

/// The next record slot of `items` (the `used`-th), reusing a parked or
/// left-over element so its strings keep their buffers.
template <typename T>
T& next_slot(std::vector<T>& items, std::vector<T>& spare, std::size_t& used) {
  if (used == items.size()) {
    if (spare.empty()) {
      items.emplace_back();
    } else {
      items.push_back(std::move(spare.back()));
      spare.pop_back();
    }
  }
  return items[used++];
}

/// Park the elements past `used` in `spare`.
template <typename T>
void park_tail(std::vector<T>& items, std::vector<T>& spare, std::size_t used) {
  while (items.size() > used) {
    spare.push_back(std::move(items.back()));
    items.pop_back();
  }
}

void write_name(core::ByteWriter& w, std::string_view name) {
  std::size_t start = 0;
  while (start < name.size()) {
    auto dot = name.find('.', start);
    if (dot == std::string_view::npos) dot = name.size();
    const auto label = name.substr(start, dot - start);
    w.u8(static_cast<std::uint8_t>(label.size() < 64 ? label.size() : 63));
    w.string(label.substr(0, 63));
    start = dot + 1;
  }
  w.u8(0);
}

}  // namespace

std::string normalize_name(std::string_view name) {
  std::string out = core::to_ascii_lower(name);
  if (!out.empty() && out.back() == '.') out.pop_back();
  return out;
}

bool parse_into(std::span<const std::byte> payload, Message& msg) {
  core::ByteReader r{payload};
  msg.id = r.u16();
  const std::uint16_t flags = r.u16();
  msg.is_response = (flags & 0x8000) != 0;
  msg.rcode = static_cast<std::uint8_t>(flags & 0x000f);
  const std::uint16_t qdcount = r.u16();
  const std::uint16_t ancount = r.u16();
  r.skip(4);  // NSCOUNT + ARCOUNT (authority/additional sections ignored)
  if (!r.ok()) return false;

  std::size_t used = 0;
  for (std::uint16_t i = 0; i < qdcount; ++i) {
    Question& q = next_slot(msg.questions, msg.spare_questions, used);
    if (!read_name(r, q.name)) return false;
    q.qtype = r.u16();
    q.qclass = r.u16();
    if (!r.ok()) return false;
  }
  park_tail(msg.questions, msg.spare_questions, used);

  used = 0;
  for (std::uint16_t i = 0; i < ancount; ++i) {
    Answer& a = next_slot(msg.answers, msg.spare_answers, used);
    if (!read_name(r, a.name)) return false;
    const std::uint16_t rtype = r.u16();
    r.skip(2);  // class
    a.ttl = r.u32();
    const std::uint16_t rdlength = r.u16();
    if (!r.ok()) return false;
    a.address = core::IPv4Address{};
    a.cname.clear();
    switch (rtype) {
      case 1:
        if (rdlength != 4) return false;
        a.type = RecordType::kA;
        a.address = core::IPv4Address{r.u32()};
        break;
      case 5: {
        a.type = RecordType::kCname;
        // RDATA is a (possibly compressed) name; bound the sub-read.
        const std::size_t end = r.position() + rdlength;
        if (!read_name(r, a.cname)) return false;
        if (r.position() > end) return false;
        r.seek(end);
        break;
      }
      case 28:
        a.type = RecordType::kAaaa;
        r.skip(rdlength);
        break;
      default:
        a.type = RecordType::kOther;
        r.skip(rdlength);
        break;
    }
    if (!r.ok()) return false;
  }
  park_tail(msg.answers, msg.spare_answers, used);
  return true;
}

std::optional<Message> parse(std::span<const std::byte> payload) {
  Message msg;
  if (!parse_into(payload, msg)) return std::nullopt;
  return msg;
}

std::vector<std::byte> serialize(const Message& msg) {
  core::ByteWriter w{64};
  w.u16(msg.id);
  std::uint16_t flags = 0;
  if (msg.is_response) flags |= 0x8000;
  flags |= msg.rcode & 0x000f;
  w.u16(flags);
  w.u16(static_cast<std::uint16_t>(msg.questions.size()));
  w.u16(static_cast<std::uint16_t>(msg.answers.size()));
  w.u16(0);
  w.u16(0);
  for (const auto& q : msg.questions) {
    write_name(w, q.name);
    w.u16(q.qtype);
    w.u16(q.qclass);
  }
  for (const auto& a : msg.answers) {
    write_name(w, a.name);
    switch (a.type) {
      case RecordType::kA:
        w.u16(1);
        w.u16(1);
        w.u32(a.ttl);
        w.u16(4);
        w.u32(a.address.value());
        break;
      case RecordType::kCname: {
        w.u16(5);
        w.u16(1);
        w.u32(a.ttl);
        core::ByteWriter name;
        write_name(name, a.cname);
        w.u16(static_cast<std::uint16_t>(name.size()));
        w.bytes(name.view());
        break;
      }
      default:
        w.u16(0);
        w.u16(1);
        w.u32(a.ttl);
        w.u16(0);
        break;
    }
  }
  return std::move(w).take();
}

Message make_a_response(std::uint16_t id, std::string_view name,
                        std::span<const core::IPv4Address> addrs, std::uint32_t ttl) {
  Message msg;
  msg.id = id;
  msg.is_response = true;
  msg.questions.push_back({normalize_name(name), 1, 1});
  for (auto addr : addrs) {
    Answer a;
    a.name = normalize_name(name);
    a.type = RecordType::kA;
    a.ttl = ttl;
    a.address = addr;
    msg.answers.push_back(std::move(a));
  }
  return msg;
}

}  // namespace edgewatch::dns
