// The remap engine (REDISTRIBUTE): a RemapPlan is a reusable permutation
// schedule between two equal-sized distributions. build_remap computes it
// with ONE batched locate (closed form for regular targets, one table
// exchange for irregular) plus one placement exchange; apply_remap then
// moves any aligned array with a single value alltoallv — pack by
// precomputed source positions, unpack by precomputed target positions, no
// per-element address arithmetic in the hot path.
#pragma once

#include <span>
#include <vector>

#include "dist/distribution.hpp"
#include "rt/collectives.hpp"

namespace chaos::dist {

/// CSR-shaped like core::CommSchedule: segment d of send_pos lists what I
/// ship to process d, segment s of place_pos where what process s ships me
/// lands.
struct RemapPlan {
  i64 size = 0;            ///< global extent both distributions share
  i64 nlocal_from = 0;     ///< my source-segment length (staleness guard)
  i64 nlocal_to = 0;       ///< my target-segment length
  i64 moved_elements = 0;  ///< machine-total elements that changed process
  u64 from_incarnation = 0;
  u64 to_incarnation = 0;
  /// P+1 prefix over send_pos. send_pos[send_offsets[d] + k] = position in
  /// my source segment of the k-th value I ship to process d (ascending
  /// source order).
  std::vector<i64> send_offsets;
  std::vector<i64> send_pos;
  /// P+1 prefix over place_pos. place_pos[place_offsets[s] + k] = position
  /// in my target segment where the k-th value arriving from process s
  /// lands.
  std::vector<i64> place_offsets;
  std::vector<i64> place_pos;
};

/// Collective. Throws if the distributions differ in global size.
[[nodiscard]] RemapPlan build_remap(rt::Process& p, const Distribution& from,
                                    const Distribution& to);

/// As above, staging the locate in @p ws (a caller's retained dereference
/// scratch). Same plan and modeled charges.
[[nodiscard]] RemapPlan build_remap(rt::Process& p, const Distribution& from,
                                    const Distribution& to,
                                    DereferenceWorkspace& ws);

/// Collective. Moves one array's owned segment through @p plan; the source
/// span must match the plan's build-time segment length, checked before any
/// communication so no rank is left stranded mid-exchange. A raw span
/// carries no distribution identity, so this length compare is the only
/// guard here; DistributedArray::redistribute additionally pins the plan to
/// both endpoint distributions via their DAD incarnations.
/// Scratch for apply_remap_delta: the plan's inverse placement map (source
/// position -> (destination, ordinal in the destination's arrival order)),
/// built once per plan and reused, plus the exchange staging. All buffers
/// grow monotonically — warm delta applies perform zero heap allocations.
struct RemapDeltaWorkspace {
  std::vector<i64> dest_of;   ///< source pos -> destination rank
  std::vector<i64> ord_of;    ///< source pos -> ordinal within that dest
  bool inverse_built = false;
  std::vector<i64> payload;   ///< flat (ordinal, value) pairs per dest
  std::vector<i64> payload_offsets;
  std::vector<i64> recv_payload;
  std::vector<i64> recv_offsets;
  std::vector<i64> counts_scratch;
};

/// Collective sparse companion of apply_remap (incremental schedule repair,
/// DESIGN.md §14): pushes only the CHANGED source entries of an i64 array
/// through @p plan, updating @p target — the array apply_remap produced —
/// in place. Wire volume is two words per changed element, so a repair's
/// remap leg costs ∝ delta size instead of re-shipping the whole array.
/// Every rank must call together (changed sets may be empty on some ranks).
inline void apply_remap_delta(rt::Process& p, const RemapPlan& plan,
                              std::span<const i64> changed_pos,
                              std::span<const i64> changed_val,
                              std::span<i64> target,
                              RemapDeltaWorkspace& ws) {
  CHAOS_CHECK(changed_pos.size() == changed_val.size(),
              "apply_remap_delta: positions/values length mismatch");
  CHAOS_CHECK(static_cast<i64>(target.size()) == plan.nlocal_to,
              "apply_remap_delta: target segment length does not match plan");
  CHAOS_CHECK(plan.send_offsets.size() ==
                  static_cast<std::size_t>(p.nprocs()) + 1,
              "apply_remap_delta: plan was built for another machine width");
  const auto np = plan.send_offsets.size() - 1;
  if (!ws.inverse_built) {
    ws.dest_of.assign(static_cast<std::size_t>(plan.nlocal_from), -1);
    ws.ord_of.assign(static_cast<std::size_t>(plan.nlocal_from), -1);
    for (std::size_t d = 0; d < np; ++d) {
      for (i64 k = plan.send_offsets[d]; k < plan.send_offsets[d + 1]; ++k) {
        const auto pos =
            static_cast<std::size_t>(plan.send_pos[static_cast<std::size_t>(k)]);
        ws.dest_of[pos] = static_cast<i64>(d);
        ws.ord_of[pos] = k - plan.send_offsets[d];
      }
    }
    ws.inverse_built = true;
  }
  // Pack (ordinal, value) pairs grouped by destination: count, prefix, fill.
  ws.payload_offsets.assign(np + 1, 0);
  for (const i64 pos : changed_pos) {
    const i64 d = ws.dest_of[static_cast<std::size_t>(pos)];
    CHAOS_CHECK(d >= 0, "apply_remap_delta: changed position never shipped");
    ws.payload_offsets[static_cast<std::size_t>(d) + 1] += 2;
  }
  for (std::size_t d = 0; d < np; ++d) {
    ws.payload_offsets[d + 1] += ws.payload_offsets[d];
  }
  ws.payload.resize(static_cast<std::size_t>(ws.payload_offsets[np]));
  ws.counts_scratch.assign(np, 0);  // per-dest fill cursor
  for (std::size_t i = 0; i < changed_pos.size(); ++i) {
    const auto pos = static_cast<std::size_t>(changed_pos[i]);
    const auto d = static_cast<std::size_t>(ws.dest_of[pos]);
    const auto at = static_cast<std::size_t>(ws.payload_offsets[d] +
                                             ws.counts_scratch[d]);
    ws.payload[at] = ws.ord_of[pos];
    ws.payload[at + 1] = changed_val[i];
    ws.counts_scratch[d] += 2;
  }
  rt::exchange_csr<i64>(p, ws.payload, ws.payload_offsets, ws.recv_payload,
                        ws.recv_offsets, ws.counts_scratch);
  // Place: arriving (ordinal, value) pairs land where apply_remap would
  // have put the s-th source's ordinal-th element.
  for (std::size_t s = 0; s < np; ++s) {
    for (i64 k = ws.recv_offsets[s]; k < ws.recv_offsets[s + 1]; k += 2) {
      const i64 ord = ws.recv_payload[static_cast<std::size_t>(k)];
      CHAOS_CHECK(ord >= 0 && ord < plan.place_offsets[s + 1] -
                                        plan.place_offsets[s],
                  "apply_remap_delta: peer sent an out-of-range ordinal");
      target[static_cast<std::size_t>(plan.place_pos[static_cast<std::size_t>(
          plan.place_offsets[s] + ord)])] =
          ws.recv_payload[static_cast<std::size_t>(k) + 1];
    }
  }
  p.clock().charge_ops(static_cast<i64>(changed_pos.size()) +
                           (ws.recv_offsets[np] / 2),
                       p.params().mem_us_per_word);
}

template <typename T>
[[nodiscard]] std::vector<T> apply_remap(rt::Process& p, const RemapPlan& plan,
                                         std::span<const T> src) {
  CHAOS_CHECK(static_cast<i64>(src.size()) == plan.nlocal_from,
              "apply_remap: plan is stale (source segment length changed)");
  std::vector<T> packed(plan.send_pos.size());
  for (std::size_t k = 0; k < packed.size(); ++k) {
    packed[k] = src[static_cast<std::size_t>(plan.send_pos[k])];
  }
  std::vector<T> out(static_cast<std::size_t>(plan.nlocal_to));
  std::vector<i64> in_offsets;
  rt::alltoallv_csr_read<T>(
      p, packed, plan.send_offsets, in_offsets, [&](const auto& segment) {
        CHAOS_CHECK(in_offsets == plan.place_offsets,
                    "apply_remap: peer sent unexpected element count");
        // Unpack straight out of the peers' packed segments.
        for (std::size_t s = 0; s + 1 < in_offsets.size(); ++s) {
          const std::span<const T> seg = segment(s);
          const i64* place = plan.place_pos.data() + in_offsets[s];
          for (std::size_t k = 0; k < seg.size(); ++k) {
            out[static_cast<std::size_t>(place[k])] = seg[k];
          }
        }
      });
  p.clock().charge_ops(static_cast<i64>(packed.size()) + plan.nlocal_to,
                       p.params().mem_us_per_word);
  return out;
}

}  // namespace chaos::dist
