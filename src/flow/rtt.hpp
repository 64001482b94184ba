// Passive RTT estimation from TCP seq/ack matching (paper §2.1, ref [29]).
//
// The probe sits between subscribers and servers. For each client→server
// segment carrying data (or SYN), it remembers (highest sequence byte,
// capture time). When the server's ACK covering that byte is observed, the
// elapsed time is one probe→server→probe RTT sample — precisely the
// "external" path delay the paper plots in Fig. 10, excluding the access
// network. Karn's rule is applied: segments that were retransmitted are
// dropped so ambiguous ACKs never produce samples.
#pragma once

#include <cstdint>
#include <vector>

#include "core/time.hpp"
#include "flow/record.hpp"

namespace edgewatch::flow {

class RttEstimator {
 public:
  /// Bound on outstanding unacked segments tracked per flow. Beyond this,
  /// the oldest are dropped (long bulk transfers produce plenty of samples
  /// anyway; memory per flow must stay small at probe scale).
  static constexpr std::size_t kMaxOutstanding = 16;

  /// Record a client→server segment. `seq_end` is seq + payload length
  /// (+1 for SYN/FIN). Zero-length pure ACKs produce no sample and are
  /// ignored.
  void on_client_segment(std::uint32_t seq, std::uint32_t seq_end, core::Timestamp ts);

  /// Record a server→client ACK; may emit a sample into `stats`.
  void on_server_ack(std::uint32_t ack, core::Timestamp ts, RttStats& stats);

  [[nodiscard]] std::size_t outstanding() const noexcept { return outstanding_.size(); }

  /// Forget every outstanding segment; the buffer keeps its capacity.
  void clear() noexcept { outstanding_.clear(); }

  struct Segment {
    std::uint32_t seq_begin = 0;
    std::uint32_t seq_end = 0;
    core::Timestamp sent;
    bool retransmitted = false;
  };

  // Checkpoint/restore support: the estimator's whole state is its
  // outstanding-segment queue.
  [[nodiscard]] const std::vector<Segment>& segments() const noexcept { return outstanding_; }
  void restore_segment(const Segment& s) {
    if (outstanding_.size() < kMaxOutstanding) outstanding_.push_back(s);
  }

 private:
  /// Sequence-space comparison robust to 32-bit wraparound (RFC 1982 style).
  [[nodiscard]] static bool seq_geq(std::uint32_t a, std::uint32_t b) noexcept {
    return static_cast<std::int32_t>(a - b) >= 0;
  }

  // A vector, not a deque: a default-constructed vector owns no memory, so
  // the estimator embedded in every FlowState costs nothing until the flow
  // actually carries data (libstdc++'s deque allocates its map + one node
  // on construction — measured as the dominant allocator traffic of the
  // replay hot path). Pop-front is an O(kMaxOutstanding) memmove of
  // trivially-copyable 24-byte segments: cheaper than a heap round trip.
  std::vector<Segment> outstanding_;
};

}  // namespace edgewatch::flow
