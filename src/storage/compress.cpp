#include "storage/compress.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "storage/codec.hpp"

namespace edgewatch::storage {

namespace {

constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kHashBits = 14;
constexpr std::size_t kMaxOffset = 65535;

std::uint32_t read32(const std::byte* p) noexcept {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

std::size_t hash4(std::uint32_t v) noexcept {
  return (v * 2654435761u) >> (32 - kHashBits);
}

void put_le32(std::vector<std::byte>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
}

std::uint32_t get_le32(std::span<const std::byte> in) noexcept {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::to_integer<std::uint32_t>(in[i]) << (8 * i);
  return v;
}

/// Append a length with LZ4-style extension bytes: `base` is the 4-bit
/// value already stored in the token; remainder continues in 255-steps.
void put_extended_length(std::vector<std::byte>& out, std::size_t value) {
  while (value >= 255) {
    out.push_back(static_cast<std::byte>(255));
    value -= 255;
  }
  out.push_back(static_cast<std::byte>(value));
}

/// LEB128 append onto a raw byte vector — bit-identical to codec.hpp's
/// put_varint(ByteWriter&), re-stated here because the segment encoders
/// build envelopes in place inside an existing payload buffer.
void put_varint_raw(std::vector<std::byte>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::byte>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<std::byte>(v));
}

constexpr unsigned varint_len(std::uint64_t v) noexcept {
  return (static_cast<unsigned>(std::bit_width(v | 1)) + 6) / 7;
}

constexpr std::int64_t unzigzag(std::uint64_t z) noexcept {
  return static_cast<std::int64_t>((z >> 1) ^ (~(z & 1) + 1));
}

/// Greedy LZ core: appends a complete envelope (scheme byte + u32le size +
/// payload) to `out`, falling back to the stored envelope unless LZ saves
/// at least 1/8 of the input.
void lz_append(std::span<const std::byte> input, std::vector<std::byte>& out,
               std::vector<std::uint32_t>& table) {
  const std::size_t start = out.size();
  out.reserve(start + input.size() / 2 + 16);
  out.push_back(static_cast<std::byte>(kSchemeLz));
  put_le32(out, static_cast<std::uint32_t>(input.size()));

  std::size_t pos = 0;
  std::size_t literal_start = 0;

  auto emit_sequence = [&](std::size_t literals_end, std::size_t match_len,
                           std::size_t match_offset) {
    const std::size_t lit_len = literals_end - literal_start;
    const std::uint8_t lit_nibble = lit_len >= 15 ? 15 : static_cast<std::uint8_t>(lit_len);
    // match_len == 0 encodes the final literal-only sequence.
    const std::size_t ml_excess = match_len >= kMinMatch ? match_len - kMinMatch : 0;
    const std::uint8_t ml_nibble =
        match_len == 0 ? 0 : (ml_excess >= 15 ? 15 : static_cast<std::uint8_t>(ml_excess));
    out.push_back(static_cast<std::byte>((lit_nibble << 4) | ml_nibble));
    if (lit_nibble == 15) put_extended_length(out, lit_len - 15);
    out.insert(out.end(), input.begin() + static_cast<std::ptrdiff_t>(literal_start),
               input.begin() + static_cast<std::ptrdiff_t>(literals_end));
    if (match_len > 0) {
      out.push_back(static_cast<std::byte>(match_offset & 0xff));
      out.push_back(static_cast<std::byte>(match_offset >> 8));
      if (ml_nibble == 15) put_extended_length(out, ml_excess - 15);
    }
  };

  if (input.size() >= kMinMatch + 1) {
    // The match table is only touched when the input is long enough to
    // match against; tiny segments (u8 constant columns are 2 bytes) skip
    // the 64 KB reset entirely.
    table.assign(std::size_t{1} << kHashBits, 0xffffffffu);
    const std::size_t limit = input.size() - kMinMatch;
    while (pos < limit) {
      const std::uint32_t value = read32(input.data() + pos);
      const std::size_t slot = hash4(value);
      const std::uint32_t candidate = table[slot];
      table[slot] = static_cast<std::uint32_t>(pos);
      if (candidate != 0xffffffffu && pos - candidate <= kMaxOffset &&
          read32(input.data() + candidate) == value) {
        // Extend the match.
        std::size_t len = kMinMatch;
        while (pos + len < input.size() && input[candidate + len] == input[pos + len]) ++len;
        emit_sequence(pos, len, pos - candidate);
        pos += len;
        literal_start = pos;
        continue;
      }
      ++pos;
    }
  }
  emit_sequence(input.size(), 0, 0);

  // Stored fallback: the envelope must stay below input + 5-byte header and
  // save 1/8 of the input; for inputs under 8 bytes that term vanishes and
  // the first bound still applies.
  const std::size_t cap = std::min(input.size() + 4, input.size() + 5 - input.size() / 8);
  if (out.size() - start > cap) {
    out.resize(start);
    out.push_back(static_cast<std::byte>(kSchemeStored));
    put_le32(out, static_cast<std::uint32_t>(input.size()));
    out.insert(out.end(), input.begin(), input.end());
  }
}

// ---- FOR bitpack kernels -------------------------------------------------

/// SWAR bit packer: values (already reduced by `base`, each < 2^width) are
/// laid down little-endian — value i occupies bits [i·width, (i+1)·width)
/// of the payload. A 64-bit accumulator flushes 8 bytes at a time with the
/// straddling value's high bits carried into the next accumulator.
void pack_for_bits(std::span<const std::uint64_t> values, std::uint64_t base, unsigned width,
                   std::vector<std::byte>& out) {
  std::uint64_t acc = 0;
  unsigned filled = 0;
  const auto flush = [&out](std::uint64_t a, unsigned nbytes) {
    std::array<std::byte, 8> tmp;
    for (unsigned k = 0; k < nbytes; ++k) {
      tmp[k] = static_cast<std::byte>(a & 0xff);
      a >>= 8;
    }
    out.insert(out.end(), tmp.begin(), tmp.begin() + nbytes);
  };
  for (const std::uint64_t v : values) {
    const std::uint64_t d = v - base;
    acc |= d << filled;  // filled < 64; bits shifted out are re-derived below
    filled += width;
    if (filled >= 64) {
      flush(acc, 8);
      filled -= 64;
      // `width - filled` is evaluated only when the value straddled the
      // boundary (filled > 0), so the shift stays in [1, 63].
      acc = filled != 0 ? d >> (width - filled) : 0;
    }
  }
  if (filled != 0) flush(acc, (filled + 7) / 8);
}

/// Portable bit reader for one packed value; shared by the generic unpack
/// path (wide widths, big-endian hosts) and the sub-group tails below.
[[nodiscard]] std::uint64_t read_packed_value(const std::uint8_t* bytes, std::size_t bit,
                                              unsigned width) noexcept {
  std::uint64_t v = 0;
  unsigned got = 0;
  while (got < width) {
    const unsigned off = static_cast<unsigned>(bit & 7);
    const unsigned take = std::min(8u - off, width - got);
    const auto byte = static_cast<std::uint64_t>(bytes[bit >> 3]);
    v |= ((byte >> off) & ((std::uint64_t{1} << take) - 1)) << got;
    got += take;
    bit += take;
  }
  return v;
}

/// SWAR unpack: one unaligned 8-byte load per value covers shift + width
/// for any width ≤ 57 (bit offset within the load is at most 7); the last
/// few values near the buffer end take a partial load so the read never
/// leaves the payload.
void unpack_for_bits(const std::uint8_t* bytes, std::size_t packed, std::size_t n, unsigned width,
                     std::uint64_t base, std::uint64_t* out) {
  if constexpr (std::endian::native == std::endian::little) {
    if (width <= 57) {
      const std::uint64_t mask = (std::uint64_t{1} << width) - 1;
      std::size_t i = 0;
      for (; i < n; ++i) {
        const std::size_t bit = i * width;
        const std::size_t off = bit >> 3;
        if (off + 8 > packed) break;
        std::uint64_t w;
        std::memcpy(&w, bytes + off, 8);
        out[i] = base + ((w >> (bit & 7)) & mask);
      }
      for (; i < n; ++i) {
        const std::size_t bit = i * width;
        const std::size_t off = bit >> 3;
        std::uint64_t w = 0;
        std::memcpy(&w, bytes + off, packed - off);
        out[i] = base + ((w >> (bit & 7)) & mask);
      }
      return;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = base + read_packed_value(bytes, i * width, width);
  }
}

#ifdef EW_VARINT_BMI2
/// BMI2 unpack for width ≤ 8: a group of 8 values occupies exactly `width`
/// bytes, so every group is byte-aligned — one PDEP spreads the whole group
/// into one output byte per value, replacing eight load/shift/mask chains.
/// Same dispatch discipline as the varint BMI2 kernels: the target
/// attribute keeps the binary runnable on pre-Haswell CPUs, callers gate on
/// varint_batch_bmi2_available().
__attribute__((target("bmi2"))) void unpack_for_bmi2(const std::uint8_t* bytes, std::size_t n,
                                                     unsigned width, std::uint64_t base,
                                                     std::uint64_t* out) {
  const std::uint64_t mask = 0x0101010101010101ULL * ((std::uint64_t{1} << width) - 1);
  const std::size_t groups = n / 8;
  for (std::size_t g = 0; g < groups; ++g) {
    std::uint64_t w = 0;
    std::memcpy(&w, bytes + g * width, width);
    const std::uint64_t spread = __builtin_ia32_pdep_di(w, mask);
    for (unsigned k = 0; k < 8; ++k) {
      out[g * 8 + k] = base + ((spread >> (8 * k)) & 0xff);
    }
  }
  for (std::size_t i = groups * 8; i < n; ++i) {
    out[i] = base + read_packed_value(bytes, i * width, width);
  }
}
#endif

// ---- value-segment decoders ----------------------------------------------

[[nodiscard]] bool decode_for_segment(std::span<const std::byte> in, std::size_t n,
                                      std::uint64_t* out) {
  // After the scheme byte: u32le count | u8 width | varint base | packed.
  if (in.size() < 5) return false;
  if (get_le32(in) != n) return false;
  const unsigned width = std::to_integer<std::uint8_t>(in[4]);
  if (width > 64) return false;
  VarintCursor c(in.subspan(5));
  const std::uint64_t base = get_varint(c);
  if (!c.ok()) return false;
  // The payload length is fully determined by (n, width): anything else —
  // truncation or trailing garbage — is corruption.
  const std::size_t packed = (n * width + 7) / 8;
  if (static_cast<std::size_t>(c.end - c.p) != packed) return false;
  if (width == 0) {
    std::fill(out, out + n, base);
    return true;
  }
#ifdef EW_VARINT_BMI2
  if (width <= 8 && varint_batch_bmi2_available()) {
    unpack_for_bmi2(c.p, n, width, base, out);
    return true;
  }
#endif
  unpack_for_bits(c.p, packed, n, width, base, out);
  return true;
}

[[nodiscard]] bool decode_rle_segment(std::span<const std::byte> in, std::size_t n,
                                      std::uint64_t* out) {
  // After the scheme byte: u32le count | (varint run_len | varint value)*.
  if (in.size() < 4) return false;
  if (get_le32(in) != n) return false;
  VarintCursor c(in.subspan(4));
  std::size_t i = 0;
  while (i < n) {
    const std::uint64_t run = get_varint(c);
    const std::uint64_t value = get_varint(c);
    if (!c.ok() || run == 0 || run > n - i) return false;
    std::fill(out + i, out + i + static_cast<std::size_t>(run), value);
    i += static_cast<std::size_t>(run);
  }
  // Runs must tile [0, n) exactly and consume every payload byte.
  return c.ok() && c.exhausted();
}

}  // namespace

void compress_block_lazy_append(std::span<const std::byte> input, std::vector<std::byte>& out,
                                CompressScratch& scratch) {
  lz_append(input, out, scratch.lz_table);
}

SegmentEncodeResult compress_u64_segment(std::span<const std::uint64_t> values,
                                         std::vector<std::byte>& out, CompressScratch& scratch) {
  const std::size_t n = values.size();
  const std::size_t start = out.size();

  // One sizing pass: the varint candidate is the sum of encoded lengths,
  // FOR follows from the min/max spread, RLE from the run structure. Only
  // the winner is materialized (FOR/RLE need a second pass over `values`,
  // never a staging buffer).
  std::size_t varint_bytes = 0;
  std::uint64_t mn = 0;
  std::uint64_t mx = 0;
  std::uint64_t run_value = 0;
  std::size_t run_len = 0;
  std::size_t rle_payload = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t v = values[i];
    varint_bytes += varint_len(v);
    if (i == 0) {
      mn = mx = run_value = v;
      run_len = 1;
      continue;
    }
    mn = std::min(mn, v);
    mx = std::max(mx, v);
    if (v == run_value) {
      ++run_len;
    } else {
      rle_payload += varint_len(run_len) + varint_len(run_value);
      run_value = v;
      run_len = 1;
    }
  }
  if (run_len != 0) rle_payload += varint_len(run_len) + varint_len(run_value);

  const unsigned width = n == 0 ? 0 : static_cast<unsigned>(std::bit_width(mx - mn));
  const std::size_t stored_size = 5 + varint_bytes;
  const std::size_t for_size = 6 + varint_len(mn) + (n * width + 7) / 8;
  const std::size_t rle_size = 5 + rle_payload;

  const auto fin = [&](std::uint8_t scheme) {
    return SegmentEncodeResult{scheme, static_cast<std::uint32_t>(varint_bytes),
                               static_cast<std::uint32_t>(out.size() - start)};
  };

  // Ties prefer the cheaper decoder: RLE (memset runs) over FOR (bit math)
  // over varint. Selection depends only on `values`, so serial and parallel
  // encoders of the same block agree byte-for-byte.
  if (rle_size <= for_size && rle_size <= stored_size) {
    out.push_back(static_cast<std::byte>(kSchemeRle));
    put_le32(out, static_cast<std::uint32_t>(n));
    std::size_t i = 0;
    while (i < n) {
      std::size_t j = i + 1;
      while (j < n && values[j] == values[i]) ++j;
      put_varint_raw(out, j - i);
      put_varint_raw(out, values[i]);
      i = j;
    }
    return fin(kSchemeRle);
  }
  if (for_size < stored_size) {
    out.push_back(static_cast<std::byte>(kSchemeForBitpack));
    put_le32(out, static_cast<std::uint32_t>(n));
    out.push_back(static_cast<std::byte>(width));
    put_varint_raw(out, mn);
    pack_for_bits(values, mn, width, out);
    return fin(kSchemeForBitpack);
  }
  // Varint wins the analytic comparison; the LZ attempt (with its 1/8
  // rule) can still shrink it further.
  scratch.stream.clear();
  scratch.stream.reserve(varint_bytes);
  for (const std::uint64_t v : values) put_varint_raw(scratch.stream, v);
  lz_append(scratch.stream, out, scratch.lz_table);
  return fin(std::to_integer<std::uint8_t>(out[start]));
}

bool decompress_u64_segment(std::span<const std::byte> input, std::size_t n, std::uint64_t* out,
                            std::vector<std::byte>& scratch) {
  if (input.empty()) return false;
  const auto scheme = std::to_integer<std::uint8_t>(input[0]);
  if (scheme == kSchemeStored || scheme == kSchemeLz) {
    const auto stream = decompress_block_view(input, scratch);
    if (!stream) return false;
    VarintCursor c(*stream);
#ifdef EW_VARINT_BMI2
    if (varint_batch_bmi2_available()) {
      return get_varint_batch_bmi2(c, n, [out](std::size_t i, std::uint64_t v) { out[i] = v; }) &&
             c.exhausted();
    }
#endif
    return get_varint_batch(c, out, n) && c.exhausted();
  }
  if (scheme == kSchemeForBitpack) return decode_for_segment(input.subspan(1), n, out);
  if (scheme == kSchemeRle) return decode_rle_segment(input.subspan(1), n, out);
  return false;
}

bool decompress_zigzag_segment(std::span<const std::byte> input, std::size_t n, std::int64_t* out,
                               std::vector<std::byte>& scratch) {
  if (input.empty()) return false;
  const auto scheme = std::to_integer<std::uint8_t>(input[0]);
  if (scheme == kSchemeStored || scheme == kSchemeLz) {
    const auto stream = decompress_block_view(input, scratch);
    if (!stream) return false;
    VarintCursor c(*stream);
#ifdef EW_VARINT_BMI2
    if (varint_batch_bmi2_available()) {
      // Fuse the unmap into the decode's value sink instead of
      // re-traversing the output.
      return get_varint_batch_bmi2(c, n,
                                   [out](std::size_t i, std::uint64_t z) {
                                     out[i] = unzigzag(z);
                                   }) &&
             c.exhausted();
    }
#endif
    // Decode into the same storage reinterpreted as unsigned (well-defined
    // aliasing), then unmap in place.
    auto* u = reinterpret_cast<std::uint64_t*>(out);
    if (!get_varint_batch(c, u, n) || !c.exhausted()) return false;
    for (std::size_t i = 0; i < n; ++i) out[i] = unzigzag(u[i]);
    return true;
  }
  auto* u = reinterpret_cast<std::uint64_t*>(out);
  if (!decompress_u64_segment(input, n, u, scratch)) return false;
  for (std::size_t i = 0; i < n; ++i) out[i] = unzigzag(u[i]);
  return true;
}

namespace {

/// Inflate a byte-stream envelope into `out`, reusing its capacity; on
/// failure `out` is left cleared.
bool decompress_block_into(std::span<const std::byte> input, std::vector<std::byte>& out) {
  out.clear();
  if (input.size() < 5) return false;
  const auto scheme = std::to_integer<std::uint8_t>(input[0]);
  const std::size_t expected = get_le32(input.subspan(1, 4));
  // The declared size is untrusted: cap it before it drives any
  // allocation, or a 5-byte header could demand 4 GB up front.
  if (expected > kMaxDecompressedSize) return false;
  input = input.subspan(5);

  if (scheme == kSchemeStored) {
    if (input.size() != expected) return false;
    out.assign(input.begin(), input.end());
    return true;
  }
  if (scheme != kSchemeLz) return false;

  out.reserve(std::min(expected, std::size_t{64} * 1024));
  std::size_t pos = 0;
  auto read_extended = [&](std::size_t base) -> std::optional<std::size_t> {
    std::size_t len = base;
    if (base == 15) {
      while (true) {
        if (pos >= input.size()) return std::nullopt;
        const auto b = std::to_integer<std::uint8_t>(input[pos++]);
        len += b;
        if (b != 255) break;
      }
    }
    return len;
  };

  while (pos < input.size()) {
    const auto token = std::to_integer<std::uint8_t>(input[pos++]);
    const auto lit_len = read_extended(token >> 4);
    if (!lit_len) return false;
    if (pos + *lit_len > input.size()) return false;
    if (out.size() + *lit_len > expected) return false;
    out.insert(out.end(), input.begin() + static_cast<std::ptrdiff_t>(pos),
               input.begin() + static_cast<std::ptrdiff_t>(pos + *lit_len));
    pos += *lit_len;
    if (pos >= input.size()) break;  // final literal-only sequence

    if (pos + 2 > input.size()) return false;
    const std::size_t offset = std::to_integer<std::size_t>(input[pos]) |
                               (std::to_integer<std::size_t>(input[pos + 1]) << 8);
    pos += 2;
    const auto ml_excess = read_extended(token & 0x0f);
    if (!ml_excess) return false;
    const std::size_t match_len = *ml_excess + kMinMatch;
    if (offset == 0 || offset > out.size()) return false;
    if (out.size() + match_len > expected) return false;
    // Byte-by-byte copy: overlapping matches (offset < len) are legal and
    // replicate the run, exactly as in LZ4.
    std::size_t from = out.size() - offset;
    for (std::size_t i = 0; i < match_len; ++i) out.push_back(out[from + i]);
  }
  if (out.size() != expected) return false;
  return true;
}

}  // namespace

std::optional<std::span<const std::byte>> decompress_block_view(std::span<const std::byte> input,
                                                                std::vector<std::byte>& scratch) {
  if (input.size() >= 5 && std::to_integer<std::uint8_t>(input[0]) == kSchemeStored) {
    const std::size_t expected = get_le32(input.subspan(1, 4));
    if (expected > kMaxDecompressedSize || input.size() - 5 != expected) return std::nullopt;
    return input.subspan(5);
  }
  if (!decompress_block_into(input, scratch)) return std::nullopt;
  return std::span<const std::byte>{scratch};
}

}  // namespace edgewatch::storage
