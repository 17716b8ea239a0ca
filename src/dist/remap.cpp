#include "dist/remap.hpp"

namespace chaos::dist {

RemapPlan build_remap(rt::Process& p, const Distribution& from,
                      const Distribution& to) {
  DereferenceWorkspace ws;
  return build_remap(p, from, to, ws);
}

RemapPlan build_remap(rt::Process& p, const Distribution& from,
                      const Distribution& to, DereferenceWorkspace& ws) {
  CHAOS_CHECK(from.size() == to.size(),
              "REDISTRIBUTE: distributions differ in global size (" +
                  std::to_string(from.size()) + " vs " +
                  std::to_string(to.size()) + ")");
  RemapPlan plan;
  plan.size = from.size();
  plan.nlocal_from = from.my_local_size();
  plan.nlocal_to = to.my_local_size();
  plan.from_incarnation = from.dad().incarnation;
  plan.to_incarnation = to.dad().incarnation;

  // One batched locate of every source global against the target layout.
  // An IRREGULAR source lends its stored slice; a distribution's own
  // globals are distinct, so the table resolves them without sorting.
  std::vector<i64> scratch;
  const auto globals = from.my_globals_view(scratch);
  std::vector<Entry> entries;
  to.locate_into(p, globals, entries, ws, /*extra_charged_queries=*/0,
                 /*queries_distinct=*/true);

  // Sender side: source positions per destination (ascending by position, so
  // the receiver's placement list below is deterministically aligned).
  const auto np = static_cast<std::size_t>(p.nprocs());
  plan.send_offsets.assign(np + 1, 0);
  i64 moved = 0;
  for (const Entry& e : entries) {
    ++plan.send_offsets[static_cast<std::size_t>(e.proc) + 1];
    if (e.proc != p.rank()) ++moved;
  }
  for (std::size_t r = 0; r < np; ++r) {
    plan.send_offsets[r + 1] += plan.send_offsets[r];
  }
  std::vector<i64> cursor(plan.send_offsets.begin(),
                          plan.send_offsets.end() - 1);
  plan.send_pos.resize(entries.size());
  // A regular source's materialized queries are spent: reuse them.
  std::vector<i64> dest_local = std::move(scratch);
  dest_local.resize(entries.size());
  for (std::size_t l = 0; l < entries.size(); ++l) {
    const i64 at = cursor[static_cast<std::size_t>(entries[l].proc)]++;
    plan.send_pos[static_cast<std::size_t>(at)] = static_cast<i64>(l);
    dest_local[static_cast<std::size_t>(at)] = entries[l].local;
  }
  p.clock().charge_ops(static_cast<i64>(entries.size()),
                       p.params().mem_us_per_word);

  // Receiver side: learn where each arriving value lands in my target
  // segment (the senders know the target local indices from locate).
  rt::alltoallv_csr<i64>(p, dest_local, plan.send_offsets, plan.place_pos,
                         plan.place_offsets);
  plan.moved_elements = rt::allreduce_sum(p, moved);
  return plan;
}

}  // namespace chaos::dist
