#include "core/iter_partition.hpp"

#include "core/inspector.hpp"
#include "rt/collectives.hpp"

namespace chaos::core {

namespace {

/// The most frequent owner among @p votes, ties to the smallest rank: what
/// sorting the votes and keeping the first longest run would pick. A loop
/// has a handful of reference batches, so counting pairwise is cheaper.
i32 majority(std::span<const i32> votes) {
  i32 best_proc = votes[0];
  std::size_t best_count = 0;
  for (std::size_t k = 0; k < votes.size(); ++k) {
    std::size_t count = 0;
    for (const i32 v : votes) count += static_cast<std::size_t>(v == votes[k]);
    if (count > best_count || (count == best_count && votes[k] < best_proc)) {
      best_count = count;
      best_proc = votes[k];
    }
  }
  return best_proc;
}

}  // namespace

IterationPartition partition_iterations(
    rt::Process& p, const dist::Distribution& iter_space,
    const dist::Distribution& data_dist,
    std::span<const std::span<const i64>> ref_batches, IterRule rule,
    i64 page_size) {
  InspectorWorkspace ws;
  return partition_iterations(p, iter_space, data_dist, ref_batches, ws, rule,
                              page_size);
}

IterationPartition partition_iterations(
    rt::Process& p, const dist::Distribution& iter_space,
    const dist::Distribution& data_dist,
    std::span<const std::span<const i64>> ref_batches, InspectorWorkspace& ws,
    IterRule rule, i64 page_size) {
  const i64 niter = iter_space.my_local_size();
  for (const auto& b : ref_batches) {
    CHAOS_CHECK(static_cast<i64>(b.size()) == niter,
                "partition_iterations: reference batch not aligned with "
                "iteration space");
  }
  const auto nbatches = static_cast<i64>(ref_batches.size());
  CHAOS_CHECK(nbatches >= 1, "partition_iterations: need at least one batch");

  // Owners of every reference: duplicates are collapsed through the
  // inspector's dedup table BEFORE the locate (the same dedup-first move
  // localize makes), so the translation table sees each distinct global
  // once. The collapsed duplicates ride the locate's clock charge as model
  // compensation — the same fused charge a locate over all niter*nbatches
  // references would have paid — and the nested dereference already
  // dedups per home on the wire, so modeled virtual times are unchanged;
  // only the host-side sort/scan work shrinks by the duplicate multiplicity.
  detail::dedup_batches(ws, ref_batches, data_dist.size());
  const std::span<const dist::Entry> entries =
      detail::locate_distinct(p, data_dist, ws);
  const std::span<const u32> ordinals = ws.pos_ordinals();

  // Vote per iteration. Reference k of iteration i for batch b sits at
  // position b*niter + i in batch-major order; its owner is the entry of
  // that position's distinct ordinal.
  std::vector<i64> home(static_cast<std::size_t>(niter), 0);
  std::vector<i32> votes(static_cast<std::size_t>(nbatches));
  for (i64 i = 0; i < niter; ++i) {
    if (rule == IterRule::OwnerComputes) {
      home[static_cast<std::size_t>(i)] =
          entries[static_cast<std::size_t>(ordinals[static_cast<std::size_t>(i)])]
              .proc;
      continue;
    }
    for (i64 b = 0; b < nbatches; ++b) {
      votes[static_cast<std::size_t>(b)] =
          entries[static_cast<std::size_t>(
                      ordinals[static_cast<std::size_t>(b * niter + i)])]
              .proc;
    }
    home[static_cast<std::size_t>(i)] = majority(votes);
  }
  p.clock().charge_ops(niter * nbatches, p.params().mem_us_per_word);

  IterationPartition out;
  out.iter_dist = dist::Distribution::irregular_from_map(
      p, home, iter_space, page_size);
  out.remap =
      dist::build_remap(p, iter_space, *out.iter_dist, ws.deref_scratch());
  for (i64 i = 0; i < niter; ++i) {
    if (home[static_cast<std::size_t>(i)] != p.rank()) ++out.moved_iterations;
  }
  out.moved_iterations = rt::allreduce_sum(p, out.moved_iterations);
  return out;
}

}  // namespace chaos::core
