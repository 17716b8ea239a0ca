// Collective operations over all logical processes of a Machine.
//
// Implementation: shared-memory blackboard over the machine's parity
// double-buffered slots. Every collective pays ONE fused tree pass
// (Process::barrier_clock_max) that simultaneously synchronizes the ranks
// and max-reduces their entering virtual clocks — the BSP "equalize, then
// charge" step rides the barrier's tree rounds instead of costing two extra
// phases. Values up to Machine::kBlackboardBytes are copied into the
// machine-owned slot, so the collective completes in that single phase (the
// epoch/parity protocol makes a later overwrite of an unread slot
// impossible; see Machine::bb_slot). Larger payloads are published by
// pointer into the caller's memory and guarded by one trailing read-done
// phase — two phases total, the maximum any collective costs.
//
// Timing: BSP-style superstep charging — entering clocks are equalized to
// the maximum, then each process is charged for the messages a real
// hypercube implementation would send/receive (see rt/cost_model.hpp). This
// keeps virtual times deterministic, independent of host scheduling, and
// bit-identical to the seed's central-barrier implementation.
#pragma once

#include <algorithm>
#include <cstring>
#include <exception>
#include <numeric>
#include <span>
#include <vector>

#include "rt/machine.hpp"

namespace chaos::rt {

namespace detail {

/// One fused pass: full synchronization, clock equalization to the global
/// max, plus @p extra_us of modeled collective cost.
inline void fused_sync(Process& p, f64 extra_us) {
  p.clock().advance_to(p.barrier_clock_max());
  p.clock().charge(extra_us);
}

/// Publishes a pointer through the rank's inline slot (pointer mode, for
/// payloads that do not fit kBlackboardBytes). A named fault-injection
/// site: a plan can kill or stall a rank at the instant it exposes caller
/// memory to its peers.
inline void bb_publish_ptr(Machine& m, int rank, u64 seq, const void* ptr) {
  m.inject_point(FaultSite::BlackboardPublish, rank);
  std::memcpy(m.bb_slot(rank, seq), &ptr, sizeof(ptr));
}

inline const void* bb_fetch_ptr(const Machine& m, int rank, u64 seq) {
  const void* ptr = nullptr;
  std::memcpy(&ptr, m.bb_slot(rank, seq), sizeof(ptr));
  return ptr;
}

template <typename T>
inline constexpr bool fits_inline_v =
    sizeof(T) <= Machine::kBlackboardBytes;

}  // namespace detail

/// Synchronization barrier; charges the modeled hypercube barrier cost.
/// One raw phase.
inline void barrier(Process& p) {
  ++p.stats().collectives;
  detail::fused_sync(p, p.params().barrier_us(p.nprocs()));
}

/// Broadcast a trivially-copyable value from @p root to all processes.
/// One phase when T fits an inline slot, two otherwise.
template <typename T>
T broadcast(Process& p, const T& value, int root = 0) {
  static_assert(std::is_trivially_copyable_v<T>);
  ++p.stats().collectives;
  Machine& m = p.machine();
  const u64 seq = p.next_bb_seq();
  const f64 cost = p.params().small_collective_us(
      p.nprocs(), static_cast<i64>(sizeof(T)));
  if constexpr (detail::fits_inline_v<T>) {
    if (p.rank() == root) {
      std::memcpy(m.bb_slot(root, seq), &value, sizeof(T));
    }
    detail::fused_sync(p, cost);
    T out;
    std::memcpy(&out, m.bb_slot(root, seq), sizeof(T));
    return out;
  } else {
    if (p.rank() == root) detail::bb_publish_ptr(m, root, seq, &value);
    detail::fused_sync(p, cost);
    T out = *static_cast<const T*>(detail::bb_fetch_ptr(m, root, seq));
    p.barrier_sync_only();  // read-done: root's value must outlive all reads
    return out;
  }
}

/// Broadcast a whole vector from @p root (payload charged per byte).
template <typename T>
std::vector<T> broadcast_vec(Process& p, const std::vector<T>& value,
                             int root = 0) {
  static_assert(std::is_trivially_copyable_v<T>);
  ++p.stats().collectives;
  Machine& m = p.machine();
  const u64 seq = p.next_bb_seq();
  if (p.rank() == root) detail::bb_publish_ptr(m, root, seq, &value);
  detail::fused_sync(p, 0.0);
  std::vector<T> out =
      *static_cast<const std::vector<T>*>(detail::bb_fetch_ptr(m, root, seq));
  p.clock().charge(p.params().small_collective_us(
      p.nprocs(), static_cast<i64>(out.size() * sizeof(T))));
  p.barrier_sync_only();
  return out;
}

/// All-reduce with an arbitrary associative @p op (e.g. std::plus<>{}).
/// One phase when T fits an inline slot, two otherwise.
template <typename T, typename BinaryOp>
T allreduce(Process& p, const T& value, BinaryOp op) {
  static_assert(std::is_trivially_copyable_v<T>);
  ++p.stats().collectives;
  Machine& m = p.machine();
  const u64 seq = p.next_bb_seq();
  const f64 cost = p.params().small_collective_us(
      p.nprocs(), static_cast<i64>(sizeof(T)));
  if constexpr (detail::fits_inline_v<T>) {
    std::memcpy(m.bb_slot(p.rank(), seq), &value, sizeof(T));
    detail::fused_sync(p, cost);
    T acc;
    std::memcpy(&acc, m.bb_slot(0, seq), sizeof(T));
    for (int r = 1; r < p.nprocs(); ++r) {
      T v;
      std::memcpy(&v, m.bb_slot(r, seq), sizeof(T));
      acc = op(acc, v);
    }
    return acc;
  } else {
    detail::bb_publish_ptr(m, p.rank(), seq, &value);
    detail::fused_sync(p, cost);
    T acc = *static_cast<const T*>(detail::bb_fetch_ptr(m, 0, seq));
    for (int r = 1; r < p.nprocs(); ++r) {
      acc = op(acc, *static_cast<const T*>(detail::bb_fetch_ptr(m, r, seq)));
    }
    p.barrier_sync_only();
    return acc;
  }
}

template <typename T>
T allreduce_sum(Process& p, const T& v) {
  return allreduce(p, v, std::plus<>{});
}
template <typename T>
T allreduce_max(Process& p, const T& v) {
  return allreduce(p, v, [](const T& a, const T& b) { return std::max(a, b); });
}
template <typename T>
T allreduce_min(Process& p, const T& v) {
  return allreduce(p, v, [](const T& a, const T& b) { return std::min(a, b); });
}

/// Element-wise all-reduce of equal-length vectors (one slot per work group;
/// used by the level-parallel bisection partitioners).
template <typename T, typename BinaryOp>
std::vector<T> allreduce_vec(Process& p, const std::vector<T>& value,
                             BinaryOp op) {
  static_assert(std::is_trivially_copyable_v<T>);
  ++p.stats().collectives;
  Machine& m = p.machine();
  const u64 seq = p.next_bb_seq();
  detail::bb_publish_ptr(m, p.rank(), seq, &value);
  detail::fused_sync(p, 0.0);
  std::vector<T> acc =
      *static_cast<const std::vector<T>*>(detail::bb_fetch_ptr(m, 0, seq));
  for (int r = 1; r < p.nprocs(); ++r) {
    const auto& other =
        *static_cast<const std::vector<T>*>(detail::bb_fetch_ptr(m, r, seq));
    CHAOS_CHECK(other.size() == acc.size(),
                "allreduce_vec: ranks disagree on vector length");
    for (std::size_t i = 0; i < acc.size(); ++i) acc[i] = op(acc[i], other[i]);
  }
  p.clock().charge(p.params().small_collective_us(
      p.nprocs(), static_cast<i64>(acc.size() * sizeof(T))));
  p.barrier_sync_only();
  return acc;
}

/// Exclusive prefix sum over ranks (rank r receives sum of values 0..r-1).
template <typename T>
T exscan_sum(Process& p, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  ++p.stats().collectives;
  Machine& m = p.machine();
  const u64 seq = p.next_bb_seq();
  const f64 cost = p.params().small_collective_us(
      p.nprocs(), static_cast<i64>(sizeof(T)));
  if constexpr (detail::fits_inline_v<T>) {
    std::memcpy(m.bb_slot(p.rank(), seq), &value, sizeof(T));
    detail::fused_sync(p, cost);
    T acc{};
    for (int r = 0; r < p.rank(); ++r) {
      T v;
      std::memcpy(&v, m.bb_slot(r, seq), sizeof(T));
      acc = acc + v;
    }
    return acc;
  } else {
    detail::bb_publish_ptr(m, p.rank(), seq, &value);
    detail::fused_sync(p, cost);
    T acc{};
    for (int r = 0; r < p.rank(); ++r) {
      acc = acc + *static_cast<const T*>(detail::bb_fetch_ptr(m, r, seq));
    }
    p.barrier_sync_only();
    return acc;
  }
}

/// Gather one value from every rank; every rank receives the full array.
template <typename T>
std::vector<T> allgather(Process& p, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  ++p.stats().collectives;
  Machine& m = p.machine();
  const u64 seq = p.next_bb_seq();
  const f64 cost = p.params().small_collective_us(
      p.nprocs(),
      static_cast<i64>(p.nprocs()) * static_cast<i64>(sizeof(T)));
  std::vector<T> out;
  out.reserve(static_cast<std::size_t>(p.nprocs()));
  if constexpr (detail::fits_inline_v<T>) {
    std::memcpy(m.bb_slot(p.rank(), seq), &value, sizeof(T));
    detail::fused_sync(p, cost);
    for (int r = 0; r < p.nprocs(); ++r) {
      T v;
      std::memcpy(&v, m.bb_slot(r, seq), sizeof(T));
      out.push_back(v);
    }
    return out;
  } else {
    detail::bb_publish_ptr(m, p.rank(), seq, &value);
    detail::fused_sync(p, cost);
    for (int r = 0; r < p.nprocs(); ++r) {
      out.push_back(*static_cast<const T*>(detail::bb_fetch_ptr(m, r, seq)));
    }
    p.barrier_sync_only();
    return out;
  }
}

/// Variable-length allgather: concatenates every rank's span in rank order.
/// @p offsets_out (optional) receives the start offset of each rank's block.
template <typename T>
std::vector<T> allgatherv(Process& p, std::span<const T> local,
                          std::vector<i64>* offsets_out = nullptr) {
  static_assert(std::is_trivially_copyable_v<T>);
  ++p.stats().collectives;
  Machine& m = p.machine();
  const u64 seq = p.next_bb_seq();
  // A span is 16 trivially-copyable bytes: deposit the view itself inline;
  // the trailing phase still guards the caller-owned payload it points at.
  std::memcpy(m.bb_slot(p.rank(), seq), &local, sizeof(local));
  detail::fused_sync(p, 0.0);
  std::vector<T> out;
  std::vector<i64> offsets(static_cast<std::size_t>(p.nprocs()) + 1, 0);
  for (int r = 0; r < p.nprocs(); ++r) {
    std::span<const T> sp;
    std::memcpy(&sp, m.bb_slot(r, seq), sizeof(sp));
    offsets[static_cast<std::size_t>(r) + 1] =
        offsets[static_cast<std::size_t>(r)] + static_cast<i64>(sp.size());
    out.insert(out.end(), sp.begin(), sp.end());
  }
  p.clock().charge(p.params().small_collective_us(
      p.nprocs(), static_cast<i64>(out.size() * sizeof(T))));
  p.barrier_sync_only();
  if (offsets_out) *offsets_out = std::move(offsets);
  return out;
}

/// Fixed-size personalized exchange: @p send holds exactly one element per
/// destination rank, @p recv receives one element per source rank. Allocates
/// nothing — both buffers are caller-provided. Used to exchange CSR segment
/// counts before an alltoallv_flat.
template <typename T>
void alltoall(Process& p, std::span<const T> send, std::span<T> recv) {
  static_assert(std::is_trivially_copyable_v<T>);
  CHAOS_CHECK(static_cast<int>(send.size()) == p.nprocs() &&
                  static_cast<int>(recv.size()) == p.nprocs(),
              "alltoall: need exactly one slot per rank on both sides");
  p.machine().inject_point(FaultSite::Alltoall, p.rank());
  ++p.stats().collectives;
  Machine& m = p.machine();
  const u64 seq = p.next_bb_seq();
  detail::bb_publish_ptr(m, p.rank(), seq, send.data());
  detail::fused_sync(
      p, p.params().small_collective_us(
             p.nprocs(),
             static_cast<i64>(p.nprocs()) * static_cast<i64>(sizeof(T))));
  for (int s = 0; s < p.nprocs(); ++s) {
    recv[static_cast<std::size_t>(s)] =
        static_cast<const T*>(detail::bb_fetch_ptr(m, s, seq))[p.rank()];
  }
  p.barrier_sync_only();
  // Traffic accounting matches alltoallv: one message of one T each way per
  // off-process peer, so the counts round a flat exchange needs stays
  // visible to MessageStats.
  for (int r = 0; r < p.nprocs(); ++r) {
    if (r == p.rank()) continue;
    p.stats().note_send(static_cast<i64>(sizeof(T)));
    p.stats().note_recv(static_cast<i64>(sizeof(T)));
  }
}

namespace detail {
/// Blackboard view one rank publishes during an alltoallv_flat: its whole
/// flat send buffer plus the P+1 prefix that slices it by destination.
/// Trivially copyable, 16 bytes — deposited inline into the rank's slot.
template <typename T>
struct FlatSendView {
  const T* data;
  const i64* offsets;
};

/// The BSP superstep charge of a personalized exchange, paid after its
/// read-done phase (clocks were equalized by the fused pass): every
/// nonempty off-process message sent, then every nonempty one received,
/// each charged and counted, and the exchange noted once.
/// @p send_bytes(d) and @p recv_bytes(s) give the bytes per peer.
template <typename SendBytes, typename RecvBytes>
void charge_alltoallv(Process& p, SendBytes&& send_bytes,
                      RecvBytes&& recv_bytes) {
  const CostParams& c = p.params();
  const auto np = static_cast<std::size_t>(p.nprocs());
  const auto me = static_cast<std::size_t>(p.rank());
  i64 off_process_bytes = 0;
  for (std::size_t d = 0; d < np; ++d) {
    if (d == me) continue;
    const i64 bytes = send_bytes(d);
    if (bytes > 0) {
      p.clock().charge(c.send_us(bytes));
      p.stats().note_send(bytes);
      off_process_bytes += bytes;
    }
  }
  for (std::size_t s = 0; s < np; ++s) {
    if (s == me) continue;
    const i64 bytes = recv_bytes(s);
    if (bytes > 0) {
      p.clock().charge(c.recv_us(bytes));
      p.stats().note_recv(bytes);
    }
  }
  p.stats().note_alltoallv(off_process_bytes);
}
}  // namespace detail

/// Flat personalized all-to-all over CSR-sliced buffers: the segment
/// send[send_offsets[d], send_offsets[d+1]) goes to rank d, and the segment
/// from source s lands at recv[recv_offsets[s], recv_offsets[s+1]). Both
/// prefix arrays have nprocs()+1 entries; peers must agree pairwise on
/// segment lengths (checked). The executor's hot path: unlike alltoallv this
/// performs ZERO heap allocations — pack buffers, receive buffers, and both
/// prefixes are caller-owned, so a schedule-driven gather/scatter can run
/// allocation-free every timestep.
template <typename T>
void alltoallv_flat(Process& p, std::span<const T> send,
                    std::span<const i64> send_offsets, std::span<T> recv,
                    std::span<const i64> recv_offsets) {
  static_assert(std::is_trivially_copyable_v<T>);
  CHAOS_CHECK(static_cast<int>(send_offsets.size()) == p.nprocs() + 1 &&
                  static_cast<int>(recv_offsets.size()) == p.nprocs() + 1,
              "alltoallv_flat: offset arrays must have nprocs+1 entries");
  CHAOS_CHECK(static_cast<i64>(send.size()) >= send_offsets[send_offsets.size() - 1] &&
                  static_cast<i64>(recv.size()) >= recv_offsets[recv_offsets.size() - 1],
              "alltoallv_flat: buffer smaller than its offset prefix claims");
  p.machine().inject_point(FaultSite::AlltoallvFlat, p.rank());
  ++p.stats().collectives;
  Machine& m = p.machine();
  const u64 seq = p.next_bb_seq();
  const detail::FlatSendView<T> view{send.data(), send_offsets.data()};
  static_assert(sizeof(view) <= Machine::kBlackboardBytes);
  std::memcpy(m.bb_slot(p.rank(), seq), &view, sizeof(view));
  detail::fused_sync(p, 0.0);
  const auto me = static_cast<std::size_t>(p.rank());
  for (int s = 0; s < p.nprocs(); ++s) {
    detail::FlatSendView<T> sv;
    std::memcpy(&sv, m.bb_slot(s, seq), sizeof(sv));
    const i64 lo = sv.offsets[me];
    const i64 n = sv.offsets[me + 1] - lo;
    CHAOS_CHECK(n == recv_offsets[static_cast<std::size_t>(s) + 1] -
                         recv_offsets[static_cast<std::size_t>(s)],
                "alltoallv_flat: peer segment length disagrees with my "
                "receive prefix");
    if (n > 0) {
      std::memcpy(recv.data() + recv_offsets[static_cast<std::size_t>(s)],
                  sv.data + lo, static_cast<std::size_t>(n) * sizeof(T));
    }
  }
  p.barrier_sync_only();

  detail::charge_alltoallv(
      p,
      [&](std::size_t d) {
        return (send_offsets[d + 1] - send_offsets[d]) *
               static_cast<i64>(sizeof(T));
      },
      [&](std::size_t s) {
        return (recv_offsets[s + 1] - recv_offsets[s]) *
               static_cast<i64>(sizeof(T));
      });
}

/// Personalized all-to-all of one CSR send buffer, read in place: the
/// segment send[send_offsets[d], send_offsets[d+1]) goes to rank d. Before
/// @p read runs, @p recv_offsets (grow-only, nprocs+1 entries) holds the
/// prefix of the segment lengths arriving here; @p read is then called
/// once with a function `segment(s)` returning the std::span<const T> that
/// source s sent. The spans point into the peers' own send buffers and are
/// valid only inside @p read, so a receiver can merge, scatter or answer
/// straight from them without a receive copy.
///
/// Two phases — publish a pointer, fused sync, read, read-done — with no
/// counts round: after the fused sync every rank reads its segment lengths
/// off its peers' published send prefixes. One collective, one
/// BlackboardPublish visit, then the BSP charge (detail::charge_alltoallv).
/// The nested-vector alltoallv below is this exchange over its flattened
/// send lists, so a caller moved between the two keeps byte-identical
/// modeled time, MessageStats and seeded-FaultPlan behaviour.
///
/// Exception safety (DESIGN.md §11): a throw mid-exchange (an injected
/// fault, a poisoned sibling, a deadline) clears @p recv_offsets before the
/// rethrow.
template <typename T, typename Read>
void alltoallv_csr_read(Process& p, std::span<const T> send,
                        std::span<const i64> send_offsets,
                        std::vector<i64>& recv_offsets, Read&& read) {
  static_assert(std::is_trivially_copyable_v<T>);
  const auto np = static_cast<std::size_t>(p.nprocs());
  CHAOS_CHECK(send_offsets.size() == np + 1,
              "alltoallv_csr: send prefix must have nprocs+1 entries");
  CHAOS_CHECK(static_cast<i64>(send.size()) >= send_offsets[np],
              "alltoallv_csr: send buffer smaller than its prefix claims");
  ++p.stats().collectives;
  Machine& m = p.machine();
  const u64 seq = p.next_bb_seq();
  const detail::FlatSendView<T> view{send.data(), send_offsets.data()};
  const auto me = static_cast<std::size_t>(p.rank());
  const auto peer = [&m, seq](std::size_t s) -> const detail::FlatSendView<T>& {
    return *static_cast<const detail::FlatSendView<T>*>(
        detail::bb_fetch_ptr(m, static_cast<int>(s), seq));
  };
  try {
    detail::bb_publish_ptr(m, p.rank(), seq, &view);
    detail::fused_sync(p, 0.0);
    // A throw while reading (a bad peer prefix, a check in @p read) still
    // passes the read-done phase first: peers may be reading my buffers.
    std::exception_ptr read_error;
    try {
      recv_offsets.resize(np + 1);
      recv_offsets[0] = 0;
      for (std::size_t s = 0; s < np; ++s) {
        const i64 n = peer(s).offsets[me + 1] - peer(s).offsets[me];
        CHAOS_CHECK(n >= 0, "alltoallv_csr: peer send prefix is not monotone");
        recv_offsets[s + 1] = recv_offsets[s] + n;
      }
      read([&](std::size_t s) {
        return std::span<const T>(
            peer(s).data + peer(s).offsets[me],
            static_cast<std::size_t>(recv_offsets[s + 1] - recv_offsets[s]));
      });
    } catch (...) {
      read_error = std::current_exception();
    }
    p.barrier_sync_only();
    if (read_error) std::rethrow_exception(read_error);
  } catch (...) {
    recv_offsets.clear();
    throw;
  }

  detail::charge_alltoallv(
      p,
      [&](std::size_t d) {
        return (send_offsets[d + 1] - send_offsets[d]) *
               static_cast<i64>(sizeof(T));
      },
      [&](std::size_t s) {
        return (recv_offsets[s + 1] - recv_offsets[s]) *
               static_cast<i64>(sizeof(T));
      });
}

/// alltoallv_csr_read that copies: on return the segment from source s
/// sits at recv[recv_offsets[s], recv_offsets[s+1]). @p recv and
/// @p recv_offsets only grow, so a warm repeat call allocates nothing. A
/// throw mid-exchange clears both before the rethrow — never half-written.
template <typename T>
void alltoallv_csr(Process& p, std::span<const T> send,
                   std::span<const i64> send_offsets, std::vector<T>& recv,
                   std::vector<i64>& recv_offsets) {
  try {
    alltoallv_csr_read<T>(
        p, send, send_offsets, recv_offsets, [&](const auto& segment) {
          recv.resize(static_cast<std::size_t>(recv_offsets.back()));
          for (std::size_t s = 0; s + 1 < recv_offsets.size(); ++s) {
            const std::span<const T> seg = segment(s);
            if (!seg.empty()) {
              std::memcpy(recv.data() + recv_offsets[s], seg.data(),
                          seg.size_bytes());
            }
          }
        });
  } catch (...) {
    recv.clear();
    throw;
  }
}

/// Personalized all-to-all: @p send[d] goes to rank d; the result's slot [s]
/// holds what rank s sent here. The nested-vector form of alltoallv_csr:
/// the send lists are flattened into one CSR and each arriving segment is
/// copied into its own vector.
template <typename T>
std::vector<std::vector<T>> alltoallv(Process& p,
                                      const std::vector<std::vector<T>>& send) {
  static_assert(std::is_trivially_copyable_v<T>);
  const auto np = static_cast<std::size_t>(p.nprocs());
  CHAOS_CHECK(send.size() == np,
              "alltoallv: send buffer list must have one entry per rank");
  std::vector<i64> send_offsets(np + 1, 0);
  for (std::size_t d = 0; d < np; ++d) {
    send_offsets[d + 1] = send_offsets[d] + static_cast<i64>(send[d].size());
  }
  std::vector<T> flat;
  flat.reserve(static_cast<std::size_t>(send_offsets[np]));
  for (const auto& seg : send) flat.insert(flat.end(), seg.begin(), seg.end());
  std::vector<std::vector<T>> out(np);
  std::vector<i64> recv_offsets;
  alltoallv_csr_read<T>(p, flat, send_offsets, recv_offsets,
                        [&](const auto& segment) {
                          for (std::size_t s = 0; s < np; ++s) {
                            const std::span<const T> seg = segment(s);
                            out[s].assign(seg.begin(), seg.end());
                          }
                        });
  return out;
}

/// Gather variable-length blocks to @p root (others receive an empty vector;
/// @p offsets_out is filled on the root only).
template <typename T>
std::vector<T> gatherv(Process& p, std::span<const T> local, int root = 0,
                       std::vector<i64>* offsets_out = nullptr) {
  static_assert(std::is_trivially_copyable_v<T>);
  ++p.stats().collectives;
  Machine& m = p.machine();
  const u64 seq = p.next_bb_seq();
  std::memcpy(m.bb_slot(p.rank(), seq), &local, sizeof(local));
  detail::fused_sync(p, 0.0);
  std::vector<T> out;
  if (p.rank() == root) {
    std::vector<i64> offsets(static_cast<std::size_t>(p.nprocs()) + 1, 0);
    for (int r = 0; r < p.nprocs(); ++r) {
      std::span<const T> sp;
      std::memcpy(&sp, m.bb_slot(r, seq), sizeof(sp));
      offsets[static_cast<std::size_t>(r) + 1] =
          offsets[static_cast<std::size_t>(r)] + static_cast<i64>(sp.size());
      out.insert(out.end(), sp.begin(), sp.end());
    }
    if (offsets_out) *offsets_out = std::move(offsets);
  }
  const CostParams& c = p.params();
  const i64 my_bytes = static_cast<i64>(local.size_bytes());
  if (p.rank() != root) {
    p.clock().charge(c.send_us(my_bytes));
    p.stats().note_send(my_bytes);
  } else {
    for (int r = 0; r < p.nprocs(); ++r) {
      if (r == root) continue;
      std::span<const T> sp;
      std::memcpy(&sp, m.bb_slot(r, seq), sizeof(sp));
      const i64 bytes = static_cast<i64>(sp.size_bytes());
      p.clock().charge(c.recv_us(bytes));
      p.stats().note_recv(bytes);
    }
  }
  p.barrier_sync_only();
  return out;
}

/// Scatter variable-length blocks from @p root: rank r receives blocks[r].
template <typename T>
std::vector<T> scatterv(Process& p, const std::vector<std::vector<T>>& blocks,
                        int root = 0) {
  static_assert(std::is_trivially_copyable_v<T>);
  ++p.stats().collectives;
  Machine& m = p.machine();
  const u64 seq = p.next_bb_seq();
  if (p.rank() == root) {
    CHAOS_CHECK(static_cast<int>(blocks.size()) == p.nprocs(),
                "scatterv: need one block per rank");
    detail::bb_publish_ptr(m, root, seq, &blocks);
  }
  detail::fused_sync(p, 0.0);
  const auto& all = *static_cast<const std::vector<std::vector<T>>*>(
      detail::bb_fetch_ptr(m, root, seq));
  std::vector<T> out = all[static_cast<std::size_t>(p.rank())];
  const CostParams& c = p.params();
  const i64 bytes = static_cast<i64>(out.size() * sizeof(T));
  if (p.rank() == root) {
    for (int r = 0; r < p.nprocs(); ++r) {
      if (r == root) continue;
      const i64 b =
          static_cast<i64>(all[static_cast<std::size_t>(r)].size() * sizeof(T));
      p.clock().charge(c.send_us(b));
      p.stats().note_send(b);
    }
  } else {
    p.clock().charge(c.recv_us(bytes));
    p.stats().note_recv(bytes);
  }
  p.barrier_sync_only();
  return out;
}

/// Collective. Exchanges one CSR of trivially-copyable items: a counts
/// alltoall fixes the receive prefix, then one flat alltoallv moves the
/// payload. @p recv / @p recv_offsets are resized in place (no allocation
/// once grown); @p counts_scratch needs no sizing by the caller. This is THE
/// CSR-forming exchange of the tree — the inspector's ghost requests,
/// geocol's half-edges, and the flat dereference's request round all drive
/// it, so the counts+payload protocol exists exactly once.
///
/// Exception safety (DESIGN.md §11): a throw anywhere mid-collective — a
/// poisoned sibling, a deadline timeout, an injected fault in the counts or
/// payload round — leaves the caller-owned output CSR explicitly INVALID:
/// @p recv and @p recv_offsets are cleared before the rethrow (capacity
/// retained, so the warm path stays allocation-free). The outputs are never
/// half-written; on return they are either the complete exchanged CSR or
/// empty. @p counts_scratch is scratch and carries no contract.
template <typename T>
void exchange_csr(Process& p, std::span<const T> send,
                  std::span<const i64> send_offsets, std::vector<T>& recv,
                  std::vector<i64>& recv_offsets,
                  std::vector<i64>& counts_scratch) {
  const auto np = static_cast<std::size_t>(p.nprocs());
  counts_scratch.resize(2 * np);
  const std::span<i64> my_counts(counts_scratch.data(), np);
  const std::span<i64> peer_counts(counts_scratch.data() + np, np);
  for (std::size_t r = 0; r < np; ++r) {
    my_counts[r] = send_offsets[r + 1] - send_offsets[r];
    // Always-on (O(P), trivial next to the exchange itself): a non-monotone
    // caller prefix would otherwise become a negative resize below.
    CHAOS_CHECK(my_counts[r] >= 0,
                "exchange_csr: negative send count — send_offsets prefix is "
                "not monotone");
  }
  try {
    alltoall<i64>(p, my_counts, peer_counts);
    recv_offsets.resize(np + 1);
    recv_offsets[0] = 0;
    for (std::size_t r = 0; r < np; ++r) {
      // The counts round carries peer-controlled input: reject negative
      // counts and a prefix sum that would wrap i64 before they become an
      // out-of-bounds receive buffer.
      CHAOS_CHECK(peer_counts[r] >= 0,
                  "exchange_csr: peer sent a negative segment count");
      CHAOS_CHECK(!__builtin_add_overflow(recv_offsets[r], peer_counts[r],
                                          &recv_offsets[r + 1]),
                  "exchange_csr: receive prefix sum overflows i64");
    }
    recv.resize(static_cast<std::size_t>(recv_offsets[np]));
    alltoallv_flat<T>(p, send, send_offsets, recv, recv_offsets);
  } catch (...) {
    // Mark the outputs invalid rather than half-written: the payload round
    // may have deposited some peers' segments before the throw.
    recv.clear();
    recv_offsets.clear();
    throw;
  }
}

/// Mints a machine-wide unique id, identical on every rank (rank 0 bumps the
/// machine counter and broadcasts). Used for DAD incarnations and loop ids.
inline u64 collective_counter(Process& p) {
  u64 v = 0;
  if (p.is_root()) v = p.machine().bump_counter();
  return broadcast(p, v, 0);
}

}  // namespace chaos::rt
