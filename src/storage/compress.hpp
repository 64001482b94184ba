// Block and segment compressors for flow logs (paper §2.2 stores years of
// compressed logs).
//
// Two layers share one envelope byte-space:
//
//  * Byte-stream compression (schemes 0/1): LZ-style greedy byte compressor
//    in the LZ4 spirit — a hash table finds previous 4-byte matches within
//    the block; output is a stream of (literal-run, match) tokens. The
//    incompressible path falls back to a stored block so compress() never
//    expands by more than the 5-byte header.
//
//  * Value-segment codecs (schemes 2/3, the lake's columnar blocks): integer
//    columns skip byte-stream compression entirely and are packed by shape
//    instead — frame-of-reference bitpacking for clustered values
//    (timestamps, counters) and run-length encoding for constant/sorted
//    runs. compress_u64_segment picks whichever of {stored varint, LZ
//    varint, FOR, RLE} is smallest for each segment.
//
// Self-contained — no external libraries — and fast enough to keep up with
// record serialization.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace edgewatch::storage {

/// Largest uncompressed block the decompressor will produce. The declared
/// size in a block header is untrusted input; anything above this is
/// rejected before it can drive an allocation. Matches the data lake's
/// block-size ceiling.
inline constexpr std::size_t kMaxDecompressedSize = std::size_t{1} << 26;

/// Envelope scheme tags: the first byte of every compressed payload.
///
///   stored : u8 0 | u32le byte_count  | raw bytes
///   lz     : u8 1 | u32le byte_count  | (literal-run, match) token stream
///   for    : u8 2 | u32le value_count | u8 bit_width | varint base | packed
///   rle    : u8 3 | u32le value_count | (varint run_len | varint value)*
///
/// Schemes 0/1 describe bytes and are produced/consumed by the
/// compress_block family; schemes 2/3 describe u64 value sequences and only
/// appear inside compress_u64_segment envelopes. A scheme-2/3 payload
/// handed to decompress_block* is rejected as malformed, and vice versa the
/// segment decoder accepts all four (a varint stream in a scheme-0/1
/// envelope is a numeric segment whose varint candidate won).
inline constexpr std::uint8_t kSchemeStored = 0;
inline constexpr std::uint8_t kSchemeLz = 1;
inline constexpr std::uint8_t kSchemeForBitpack = 2;
inline constexpr std::uint8_t kSchemeRle = 3;

/// Reusable encode-side scratch: the LZ match table (64 KB) and the varint
/// staging buffer used when the varint candidate wins segment selection.
/// One instance per encode context, reused across every segment of every
/// block, keeps the steady-state write path allocation-free — the encode
/// mirror of the read side's ScanScratch.
struct CompressScratch {
  std::vector<std::uint32_t> lz_table;
  std::vector<std::byte> stream;
};

/// What compress_u64_segment appended: the winning scheme, the size the
/// values would have occupied as a plain varint stream (what the per-codec
/// obs counters report as bytes-in), and the
/// envelope bytes actually written.
struct SegmentEncodeResult {
  std::uint8_t scheme = kSchemeStored;
  std::uint32_t bytes_in = 0;
  std::uint32_t bytes_out = 0;
};

/// Compress a block. Output begins with a 1-byte scheme tag and a 4-byte
/// little-endian uncompressed size.
[[nodiscard]] std::vector<std::byte> compress_block(std::span<const std::byte> input);

/// As compress_block, but emits the stored envelope unless LZ saves at
/// least 1/8 of the input. Column segments are already varint/delta/dict
/// packed, so LZ rarely buys much on them — and a stored segment is
/// decoded zero-copy straight from the file bytes (decompress_block_view
/// returns a subspan), which is what makes the columnar scan path fast.
/// Row-format block bodies keep plain compress_block: they compress well
/// and are decoded once per block, not once per column.
[[nodiscard]] std::vector<std::byte> compress_block_lazy(std::span<const std::byte> input);

/// Append-in-place variants producing byte-identical envelopes while
/// reusing the caller's match-table scratch: the pipelined encode path
/// compresses thousands of segments per day file and must not pay a 64 KB
/// allocation for each.
void compress_block_append(std::span<const std::byte> input, std::vector<std::byte>& out,
                           CompressScratch& scratch);
void compress_block_lazy_append(std::span<const std::byte> input, std::vector<std::byte>& out,
                                CompressScratch& scratch);

/// Append `values` to `out` as a value-segment envelope, keeping whichever
/// candidate is smallest. Candidate sizes are computed analytically in one
/// pass (varint length sum; FOR size from the min/max bit width; RLE size
/// from the run structure) so only the winner is materialized; the LZ
/// attempt is made only when the varint stream wins, matching the legacy
/// lazy rule (LZ must save ≥ 1/8 over stored). Selection is a pure function
/// of `values`, which is what makes parallel and serial encoders
/// byte-identical by construction.
[[nodiscard]] SegmentEncodeResult compress_u64_segment(std::span<const std::uint64_t> values,
                                                       std::vector<std::byte>& out,
                                                       CompressScratch& scratch);

/// Decode a value-segment envelope into out[0..n). Handles all four
/// schemes: 0/1 inflate (scratch backs the LZ case; stored decodes
/// zero-copy from `input`) and batch-decode exactly `n` varints; 2/3
/// validate their embedded value count against `n` and their payload
/// length/run structure exactly. False on any malformed input — truncated,
/// overlong, wrong count, trailing bytes — with out[] contents unspecified.
[[nodiscard]] bool decompress_u64_segment(std::span<const std::byte> input, std::size_t n,
                                          std::uint64_t* out, std::vector<std::byte>& scratch);

/// As decompress_u64_segment, but zigzag-unmaps every value (the signed
/// column convention). The unmap is fused into the scheme-0/1 decode sink
/// where BMI2 is available instead of re-traversing the output.
[[nodiscard]] bool decompress_zigzag_segment(std::span<const std::byte> input, std::size_t n,
                                             std::int64_t* out, std::vector<std::byte>& scratch);

/// Decompress; nullopt on malformed input (never reads out of bounds, never
/// allocates more than kMaxDecompressedSize).
[[nodiscard]] std::optional<std::vector<std::byte>> decompress_block(
    std::span<const std::byte> input);

/// Decompress into a caller-owned buffer, reusing its capacity. `out` is
/// cleared and filled; on failure it is left cleared and false returned.
/// This is the scan hot path: one scratch buffer per scan (or per parallel
/// worker) instead of one allocation per block.
[[nodiscard]] bool decompress_block_into(std::span<const std::byte> input,
                                         std::vector<std::byte>& out);

/// View the uncompressed bytes of a block: a stored block is returned as a
/// subspan of `input` itself (zero copy — the columnar scan path decodes
/// incompressible column segments straight from the mapped file bytes);
/// an LZ block is inflated into `scratch` and a span over it returned.
/// nullopt on malformed input.
[[nodiscard]] std::optional<std::span<const std::byte>> decompress_block_view(
    std::span<const std::byte> input, std::vector<std::byte>& scratch);

}  // namespace edgewatch::storage
