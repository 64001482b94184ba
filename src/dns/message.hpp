// DNS wire-format message parsing and serialization (RFC 1035 subset).
//
// The probe needs just enough DNS to run DN-Hunter (paper §2.1, ref [4]):
// observe responses on port 53, extract (queried name, answered A records,
// client address) triples, and remember them so later flows towards those
// addresses can be labeled with the name the client resolved. We parse the
// header, question section and answer section with full name-compression
// support (with loop protection), and serialize responses for the synthetic
// generator.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/bytes.hpp"
#include "core/types.hpp"

namespace edgewatch::dns {

enum class RecordType : std::uint16_t {
  kA = 1,
  kCname = 5,
  kAaaa = 28,
  kOther = 0,
};

struct Question {
  std::string name;  ///< Lower-cased, no trailing dot.
  std::uint16_t qtype = 1;
  std::uint16_t qclass = 1;

  friend bool operator==(const Question&, const Question&) = default;
};

struct Answer {
  std::string name;
  RecordType type = RecordType::kOther;
  std::uint32_t ttl = 0;
  core::IPv4Address address;  ///< Valid iff type == kA.
  std::string cname;          ///< Valid iff type == kCname.

  friend bool operator==(const Answer&, const Answer&) = default;
};

struct Message {
  std::uint16_t id = 0;
  bool is_response = false;
  std::uint8_t rcode = 0;
  std::vector<Question> questions;
  std::vector<Answer> answers;
  /// Scratch, not part of the message: parse_into() parks the records a
  /// shorter message left over here, string buffers and all, and takes
  /// them back for the next longer one.
  std::vector<Question> spare_questions;
  std::vector<Answer> spare_answers;

  [[nodiscard]] bool ok_response() const noexcept { return is_response && rcode == 0; }
};

/// Parse a DNS message from a UDP payload into `msg`, overwriting it.
/// Names are lower-cased as they are read. The message's vectors and
/// strings are reused, so a caller that keeps one scratch Message parses
/// without heap allocation once its buffers fit the traffic. Returns false
/// on malformed input (including compression-pointer loops); `msg` then
/// holds an unspecified partial parse. Unknown record types are retained
/// with type kOther and their RDATA skipped.
[[nodiscard]] bool parse_into(std::span<const std::byte> payload, Message& msg);

/// parse_into() on a fresh Message; nullopt on malformed input.
[[nodiscard]] std::optional<Message> parse(std::span<const std::byte> payload);

/// Serialize a response message. Names are emitted uncompressed; the parser
/// accepts both forms. Only A/CNAME answers are serializable (all the
/// synthetic generator needs).
[[nodiscard]] std::vector<std::byte> serialize(const Message& msg);

/// Build a minimal A-record response: `name` resolving to `addrs`.
[[nodiscard]] Message make_a_response(std::uint16_t id, std::string_view name,
                                      std::span<const core::IPv4Address> addrs,
                                      std::uint32_t ttl = 300);

/// Case-normalize a DNS name: ASCII lower-case, strip one trailing dot.
[[nodiscard]] std::string normalize_name(std::string_view name);

}  // namespace edgewatch::dns
