#include "dpi/parsers.hpp"

#include <algorithm>

#include "core/ascii.hpp"

namespace edgewatch::dpi {

using core::to_ascii_lower;

// ------------------------------------------------------------------ TLS

bool looks_like_tls(std::span<const std::byte> payload) noexcept {
  if (payload.size() < 5) return false;
  const auto type = std::to_integer<std::uint8_t>(payload[0]);
  const auto major = std::to_integer<std::uint8_t>(payload[1]);
  const auto minor = std::to_integer<std::uint8_t>(payload[2]);
  return type == 0x16 && major == 3 && minor <= 4;
}

std::optional<TlsClientHello> parse_client_hello(std::span<const std::byte> payload) {
  if (!looks_like_tls(payload)) return std::nullopt;
  core::ByteReader r{payload};
  TlsClientHello hello;

  // Record layer.
  (void)r.u8();  // content type, already checked
  hello.record_version = r.u16();
  const std::uint16_t record_len = r.u16();
  (void)record_len;  // may exceed the captured bytes; parse what we have

  // Handshake layer.
  const std::uint8_t handshake_type = r.u8();
  if (handshake_type != 0x01) return std::nullopt;  // not a ClientHello
  (void)r.u24();                                    // handshake length
  hello.client_version = r.u16();
  r.skip(32);  // random
  const std::uint8_t session_id_len = r.u8();
  r.skip(session_id_len);
  const std::uint16_t cipher_len = r.u16();
  r.skip(cipher_len);
  const std::uint8_t compression_len = r.u8();
  r.skip(compression_len);
  if (!r.ok()) return std::nullopt;
  if (r.remaining() < 2) return hello;  // extensions are optional

  const std::uint16_t ext_total = r.u16();
  std::size_t ext_consumed = 0;
  while (ext_consumed + 4 <= ext_total && r.ok() && r.remaining() >= 4) {
    const std::uint16_t ext_type = r.u16();
    const std::uint16_t ext_len = r.u16();
    ext_consumed += 4 + ext_len;
    if (ext_type == 0x0000) {  // server_name
      core::ByteReader er{r.bytes(ext_len)};
      const std::uint16_t list_len = er.u16();
      (void)list_len;
      const std::uint8_t name_type = er.u8();
      const std::uint16_t name_len = er.u16();
      if (er.ok() && name_type == 0) {
        hello.sni = to_ascii_lower(er.string(name_len));
      }
    } else if (ext_type == 0x0010) {  // ALPN
      core::ByteReader er{r.bytes(ext_len)};
      const std::uint16_t list_len = er.u16();
      std::size_t consumed = 0;
      while (consumed < list_len && er.ok() && er.remaining() > 0) {
        const std::uint8_t plen = er.u8();
        const auto proto = er.string(plen);
        if (!er.ok()) break;
        hello.alpn.emplace_back(proto);
        consumed += 1 + plen;
      }
    } else {
      r.skip(ext_len);
    }
  }
  if (!r.ok()) return std::nullopt;
  return hello;
}

std::vector<std::byte> build_client_hello(std::string_view sni, std::span<const std::string> alpn,
                                          std::uint16_t version) {
  // Extensions block first (its size is needed by enclosing lengths).
  core::ByteWriter ext;
  if (!sni.empty()) {
    ext.u16(0x0000);
    ext.u16(static_cast<std::uint16_t>(2 + 1 + 2 + sni.size()));
    ext.u16(static_cast<std::uint16_t>(1 + 2 + sni.size()));  // server name list
    ext.u8(0);                                                // host_name
    ext.u16(static_cast<std::uint16_t>(sni.size()));
    ext.string(sni);
  }
  if (!alpn.empty()) {
    std::size_t list = 0;
    for (const auto& p : alpn) list += 1 + p.size();
    ext.u16(0x0010);
    ext.u16(static_cast<std::uint16_t>(2 + list));
    ext.u16(static_cast<std::uint16_t>(list));
    for (const auto& p : alpn) {
      ext.u8(static_cast<std::uint8_t>(p.size()));
      ext.string(p);
    }
  }

  core::ByteWriter body;
  body.u16(version);
  body.fill(32, 0xaa);  // random
  body.u8(0);           // empty session id
  body.u16(2);          // one cipher suite
  body.u16(0x1301);     // TLS_AES_128_GCM_SHA256
  body.u8(1);           // one compression method
  body.u8(0);           // null
  body.u16(static_cast<std::uint16_t>(ext.size()));
  body.bytes(ext.view());

  core::ByteWriter handshake;
  handshake.u8(0x01);  // ClientHello
  handshake.u24(static_cast<std::uint32_t>(body.size()));
  handshake.bytes(body.view());

  core::ByteWriter record;
  record.u8(0x16);    // handshake
  record.u16(0x0301); // record-layer version as emitted by real clients
  record.u16(static_cast<std::uint16_t>(handshake.size()));
  record.bytes(handshake.view());
  return std::move(record).take();
}

std::optional<TlsServerHello> parse_server_hello(std::span<const std::byte> payload) {
  if (!looks_like_tls(payload)) return std::nullopt;
  core::ByteReader r{payload};
  (void)r.u8();   // content type
  (void)r.u16();  // record version
  (void)r.u16();  // record length
  const std::uint8_t handshake_type = r.u8();
  if (handshake_type != 0x02) return std::nullopt;  // not a ServerHello
  (void)r.u24();
  TlsServerHello hello;
  hello.server_version = r.u16();
  r.skip(32);  // random
  const std::uint8_t session_id_len = r.u8();
  r.skip(session_id_len);
  r.skip(2);  // chosen cipher suite
  r.skip(1);  // compression method
  if (!r.ok()) return std::nullopt;
  if (r.remaining() < 2) return hello;
  const std::uint16_t ext_total = r.u16();
  std::size_t consumed = 0;
  while (consumed + 4 <= ext_total && r.ok() && r.remaining() >= 4) {
    const std::uint16_t ext_type = r.u16();
    const std::uint16_t ext_len = r.u16();
    consumed += 4 + ext_len;
    if (ext_type == 0x0010) {  // ALPN: exactly one selected protocol
      core::ByteReader er{r.bytes(ext_len)};
      (void)er.u16();  // list length
      const std::uint8_t plen = er.u8();
      const auto proto = er.string(plen);
      if (er.ok()) hello.alpn = std::string(proto);
    } else {
      r.skip(ext_len);
    }
  }
  if (!r.ok()) return std::nullopt;
  return hello;
}

std::vector<std::byte> build_server_hello(std::string_view alpn, std::uint16_t version) {
  core::ByteWriter ext;
  if (!alpn.empty()) {
    ext.u16(0x0010);
    ext.u16(static_cast<std::uint16_t>(2 + 1 + alpn.size()));
    ext.u16(static_cast<std::uint16_t>(1 + alpn.size()));
    ext.u8(static_cast<std::uint8_t>(alpn.size()));
    ext.string(alpn);
  }
  core::ByteWriter body;
  body.u16(version);
  body.fill(32, 0xbb);  // random
  body.u8(0);           // empty session id
  body.u16(0x1301);     // chosen cipher
  body.u8(0);           // null compression
  body.u16(static_cast<std::uint16_t>(ext.size()));
  body.bytes(ext.view());

  core::ByteWriter handshake;
  handshake.u8(0x02);  // ServerHello
  handshake.u24(static_cast<std::uint32_t>(body.size()));
  handshake.bytes(body.view());

  core::ByteWriter record;
  record.u8(0x16);
  record.u16(0x0301);
  record.u16(static_cast<std::uint16_t>(handshake.size()));
  record.bytes(handshake.view());
  return std::move(record).take();
}

// ----------------------------------------------------------------- HTTP

bool looks_like_http_request(std::span<const std::byte> payload) noexcept {
  static constexpr std::string_view kMethods[] = {"GET ",     "POST ",  "HEAD ",
                                                  "PUT ",     "DELETE ", "OPTIONS ",
                                                  "CONNECT ", "PATCH "};
  for (auto m : kMethods) {
    if (payload.size() >= m.size() &&
        std::equal(m.begin(), m.end(), reinterpret_cast<const char*>(payload.data()))) {
      return true;
    }
  }
  return false;
}

std::optional<HttpRequest> parse_http_request(std::span<const std::byte> payload) {
  if (!looks_like_http_request(payload)) return std::nullopt;
  const std::string_view text{reinterpret_cast<const char*>(payload.data()), payload.size()};

  const auto line_end = text.find("\r\n");
  if (line_end == std::string_view::npos) return std::nullopt;
  const auto request_line = text.substr(0, line_end);
  const auto sp1 = request_line.find(' ');
  const auto sp2 = request_line.rfind(' ');
  if (sp1 == std::string_view::npos || sp2 == sp1) return std::nullopt;

  HttpRequest req;
  req.method = std::string(request_line.substr(0, sp1));
  req.target = std::string(request_line.substr(sp1 + 1, sp2 - sp1 - 1));
  req.version = std::string(request_line.substr(sp2 + 1));
  if (!req.version.starts_with("HTTP/")) return std::nullopt;

  std::size_t pos = line_end + 2;
  while (pos < text.size()) {
    const auto eol = text.find("\r\n", pos);
    const auto line = text.substr(pos, eol == std::string_view::npos ? text.size() - pos
                                                                     : eol - pos);
    if (line.empty()) break;  // end of headers
    const auto colon = line.find(':');
    if (colon != std::string_view::npos &&
        core::equals_ascii_lower(line.substr(0, colon), "host")) {
      auto value = line.substr(colon + 1);
      while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
      while (!value.empty() && (value.back() == ' ' || value.back() == '\r')) {
        value.remove_suffix(1);
      }
      const auto port = value.rfind(':');
      if (port != std::string_view::npos &&
          value.find_first_not_of("0123456789", port + 1) == std::string_view::npos) {
        value = value.substr(0, port);
      }
      req.host = to_ascii_lower(value);
    }
    if (eol == std::string_view::npos) break;
    pos = eol + 2;
  }
  return req;
}

std::vector<std::byte> build_http_request(std::string_view host, std::string_view target,
                                          std::string_view method) {
  std::string text;
  text.reserve(64 + host.size() + target.size());
  text.append(method).append(" ").append(target).append(" HTTP/1.1\r\n");
  text.append("Host: ").append(host).append("\r\n");
  text.append("User-Agent: edgewatch-synth/1.0\r\n");
  text.append("Accept: */*\r\n\r\n");
  return core::to_bytes(text);
}

bool looks_like_http_response(std::span<const std::byte> payload) noexcept {
  static constexpr std::string_view kPrefix = "HTTP/1.";
  if (payload.size() < kPrefix.size() + 5) return false;  // "HTTP/1.x NNN"
  return std::equal(kPrefix.begin(), kPrefix.end(),
                    reinterpret_cast<const char*>(payload.data()));
}

std::optional<HttpResponse> parse_http_response(std::span<const std::byte> payload) {
  if (!looks_like_http_response(payload)) return std::nullopt;
  const std::string_view text{reinterpret_cast<const char*>(payload.data()), payload.size()};
  const auto line_end = text.find("\r\n");
  if (line_end == std::string_view::npos) return std::nullopt;
  const auto status_line = text.substr(0, line_end);
  const auto sp = status_line.find(' ');
  if (sp == std::string_view::npos || sp + 4 > status_line.size()) return std::nullopt;

  HttpResponse resp;
  resp.version = std::string(status_line.substr(0, sp));
  int status = 0;
  for (int i = 0; i < 3; ++i) {
    const char c = status_line[sp + 1 + static_cast<std::size_t>(i)];
    if (c < '0' || c > '9') return std::nullopt;
    status = status * 10 + (c - '0');
  }
  resp.status = status;

  std::size_t pos = line_end + 2;
  while (pos < text.size()) {
    const auto eol = text.find("\r\n", pos);
    const auto line =
        text.substr(pos, eol == std::string_view::npos ? text.size() - pos : eol - pos);
    if (line.empty()) break;
    const auto colon = line.find(':');
    if (colon != std::string_view::npos &&
        core::equals_ascii_lower(line.substr(0, colon), "content-type")) {
      auto value = line.substr(colon + 1);
      while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
      const auto semi = value.find(';');
      if (semi != std::string_view::npos) value = value.substr(0, semi);
      while (!value.empty() && value.back() == ' ') value.remove_suffix(1);
      resp.content_type = to_ascii_lower(value);
    }
    if (eol == std::string_view::npos) break;
    pos = eol + 2;
  }
  return resp;
}

std::vector<std::byte> build_http_response(int status, std::string_view content_type,
                                           std::size_t body_bytes) {
  std::string text = "HTTP/1.1 " + std::to_string(status) + " OK\r\n";
  if (!content_type.empty()) {
    text += "Content-Type: ";
    text += content_type;
    text += "\r\n";
  }
  text += "Content-Length: " + std::to_string(body_bytes) + "\r\n\r\n";
  text.append(body_bytes, 'B');
  return core::to_bytes(text);
}

// ----------------------------------------------------------------- QUIC

bool looks_like_quic(std::span<const std::byte> payload) noexcept {
  if (payload.size() < 9) return false;
  const auto flags = std::to_integer<std::uint8_t>(payload[0]);
  // GQUIC client packets: PUBLIC_FLAG_VERSION (0x01) + 8-byte CID (0x08),
  // reserved bits clear.
  if ((flags & 0x09) != 0x09 || (flags & 0x80) != 0) return false;
  if (payload.size() < 13) return false;
  // Version tag "Q0xx" with digits.
  const char q = static_cast<char>(std::to_integer<std::uint8_t>(payload[9]));
  const char d0 = static_cast<char>(std::to_integer<std::uint8_t>(payload[10]));
  const char d1 = static_cast<char>(std::to_integer<std::uint8_t>(payload[11]));
  const char d2 = static_cast<char>(std::to_integer<std::uint8_t>(payload[12]));
  return q == 'Q' && std::isdigit(static_cast<unsigned char>(d0)) &&
         std::isdigit(static_cast<unsigned char>(d1)) &&
         std::isdigit(static_cast<unsigned char>(d2));
}

std::optional<QuicPublicHeader> parse_quic_header(std::span<const std::byte> payload) {
  if (!looks_like_quic(payload)) return std::nullopt;
  core::ByteReader r{payload};
  QuicPublicHeader h;
  (void)r.u8();
  h.connection_id = r.u64le();
  h.has_version = true;
  h.version = std::string(r.string(4));
  if (!r.ok()) return std::nullopt;
  return h;
}

std::vector<std::byte> build_quic_client_packet(std::uint64_t connection_id,
                                                std::string_view version) {
  core::ByteWriter w;
  w.u8(0x09);  // VERSION | 8-byte CID
  w.u64le(connection_id);
  w.string(version.substr(0, 4));
  w.fill(16, 0x42);  // opaque packet number + payload stub
  return std::move(w).take();
}

// -------------------------------------------------------------- FB-Zero

namespace {
constexpr std::string_view kZeroMagic = "ZP01";
}

bool looks_like_fbzero(std::span<const std::byte> payload) noexcept {
  if (payload.size() < kZeroMagic.size()) return false;
  return std::equal(kZeroMagic.begin(), kZeroMagic.end(),
                    reinterpret_cast<const char*>(payload.data()));
}

std::vector<std::byte> build_fbzero_hello(std::string_view sni) {
  core::ByteWriter w;
  w.string(kZeroMagic);
  w.u16(static_cast<std::uint16_t>(sni.size()));
  w.string(sni);
  w.fill(8, 0x5a);
  return std::move(w).take();
}

std::optional<std::string> parse_fbzero_sni(std::span<const std::byte> payload) {
  if (!looks_like_fbzero(payload)) return std::nullopt;
  core::ByteReader r{payload};
  r.skip(kZeroMagic.size());
  const std::uint16_t len = r.u16();
  auto name = r.string(len);
  if (!r.ok()) return std::nullopt;
  return to_ascii_lower(name);
}

// ----------------------------------------------------------------- P2P

bool looks_like_bittorrent(std::span<const std::byte> payload) noexcept {
  static constexpr std::string_view kProto = "BitTorrent protocol";
  if (payload.size() < 1 + kProto.size()) return false;
  if (std::to_integer<std::uint8_t>(payload[0]) != 19) return false;
  return std::equal(kProto.begin(), kProto.end(),
                    reinterpret_cast<const char*>(payload.data() + 1));
}

std::vector<std::byte> build_bittorrent_handshake(std::span<const std::byte> info_hash) {
  core::ByteWriter w;
  w.u8(19);
  w.string("BitTorrent protocol");
  w.fill(8, 0);  // reserved
  for (std::size_t i = 0; i < 20; ++i) {
    w.u8(i < info_hash.size() ? std::to_integer<std::uint8_t>(info_hash[i]) : 0);
  }
  w.fill(20, 0x50);  // peer id
  return std::move(w).take();
}

bool looks_like_edonkey(std::span<const std::byte> payload) noexcept {
  if (payload.size() < 6) return false;
  const auto marker = std::to_integer<std::uint8_t>(payload[0]);
  if (marker != 0xe3 && marker != 0xc5) return false;
  // 4-byte little-endian length must be plausible (< 2 MB).
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= std::to_integer<std::uint32_t>(payload[1 + i]) << (8 * i);
  }
  return len > 0 && len < (2u << 20);
}

std::vector<std::byte> build_edonkey_hello() {
  core::ByteWriter w;
  w.u8(0xe3);
  w.u32le(25);  // message length
  w.u8(0x01);   // OP_HELLO
  w.fill(24, 0x11);
  return std::move(w).take();
}

bool looks_like_dht(std::span<const std::byte> payload) noexcept {
  static constexpr std::string_view kPrefix = "d1:ad2:id20:";
  if (payload.size() < kPrefix.size()) return false;
  return std::equal(kPrefix.begin(), kPrefix.end(),
                    reinterpret_cast<const char*>(payload.data()));
}

std::vector<std::byte> build_dht_query() {
  return core::to_bytes("d1:ad2:id20:abcdefghij0123456789e1:q4:ping1:t2:aa1:y1:qe");
}

}  // namespace edgewatch::dpi
