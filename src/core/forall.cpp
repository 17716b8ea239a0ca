#include "core/forall.hpp"

namespace chaos::core {

namespace {

/// Diffs @p fresh against @p baseline into (pos, val) pairs — the sparse
/// input apply_remap_delta ships — then refreshes the baseline at the
/// changed positions only. Pure local; returns the local changed count.
i64 diff_slice(std::span<const i64> fresh, std::vector<i64>& baseline,
               std::vector<i64>& pos, std::vector<i64>& val) {
  pos.clear();
  val.clear();
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    if (fresh[i] != baseline[i]) {
      pos.push_back(static_cast<i64>(i));
      val.push_back(fresh[i]);
      baseline[i] = fresh[i];
    }
  }
  return static_cast<i64>(pos.size());
}

}  // namespace

std::shared_ptr<EdgeLoopPlan> EdgeReductionLoop::inspect(
    rt::Process& p, const dist::Distribution& edge_dist,
    std::span<const i64> ept1, std::span<const i64> ept2,
    const dist::Distribution& data_dist, IterRule rule,
    const PlanOptions& opts) {
  auto plan = std::make_shared<EdgeLoopPlan>();
  plan->iws.configure(opts);
  plan->build.begin_build();

  // Phase B: iteration partition from the references' homes.
  const std::span<const i64> batches[] = {ept1, ept2};
  plan->iters =
      partition_iterations(p, edge_dist, data_dist, batches, plan->iws, rule);

  // Phase C (iteration side): remap the indirection slices so each process
  // holds the endpoints of the iterations it will execute.
  plan->end1 = dist::apply_remap<i64>(p, plan->iters.remap, ept1);
  plan->end2 = dist::apply_remap<i64>(p, plan->iters.remap, ept2);
  plan->src1.assign(ept1.begin(), ept1.end());
  plan->src2.assign(ept2.begin(), ept2.end());

  // Phase D: localize (dedup + translate + schedule) through the plan's
  // workspace; the snapshot is the baseline the next repair diffs against.
  const std::span<const i64> remapped[] = {plan->end1, plan->end2};
  localize_many(p, data_dist, remapped, plan->iws, plan->loc);
  plan->iws.capture(plan->snap);
  plan->build.mark_built();
  return plan;
}

bool EdgeReductionLoop::repair(rt::Process& p, EdgeLoopPlan& plan,
                               std::span<const i64> ept1,
                               std::span<const i64> ept2,
                               const dist::Distribution& data_dist) {
  // Hard eligibility, voted BEFORE any mutation so every rank takes the
  // same path and an ineligible plan is left untouched (and still ready).
  const bool ok =
      plan.build.ready() && plan.options().repair_enabled() &&
      static_cast<i64>(ept1.size()) == plan.iters.remap.nlocal_from &&
      ept1.size() == plan.src1.size() && ept2.size() == plan.src2.size();
  if (rt::allreduce_max(p, ok ? i64{0} : i64{1}) != 0) {
    ++p.stats().repair_fallbacks;
    return false;
  }

  // From here the plan mutates: not-ready until the splice lands, so a
  // voted-out or thrown-through attempt forces a full re-inspect instead of
  // executing half-updated state (DESIGN.md §11).
  plan.build.begin_build();

  // Phase C': ship only the CHANGED endpoints through the remap.
  diff_slice(ept1, plan.src1, plan.delta_pos, plan.delta_val);
  dist::apply_remap_delta(p, plan.iters.remap, plan.delta_pos, plan.delta_val,
                          plan.end1, plan.remap_ws);
  diff_slice(ept2, plan.src2, plan.delta_pos, plan.delta_val);
  dist::apply_remap_delta(p, plan.iters.remap, plan.delta_pos, plan.delta_val,
                          plan.end2, plan.remap_ws);
  // The diff scan touches every slice element once.
  p.clock().charge_ops(static_cast<i64>(ept1.size() + ept2.size()),
                       p.params().mem_us_per_word);

  // Phase D': splice the schedule for the delta.
  const std::span<const i64> remapped[] = {plan.end1, plan.end2};
  if (!repair_localize_many(p, data_dist, remapped, plan.iws, plan.snap,
                            plan.loc)) {
    return false;
  }
  plan.iws.capture(plan.snap);
  plan.build.mark_built();
  return true;
}

std::shared_ptr<SingleStatementPlan> SingleStatementLoop::inspect(
    rt::Process& p, const dist::Distribution& iter_dist,
    std::span<const i64> ia, std::span<const i64> ib, std::span<const i64> ic,
    const dist::Distribution& y_dist, const dist::Distribution& x_dist,
    IterRule rule, const PlanOptions& opts) {
  auto plan = std::make_shared<SingleStatementPlan>();
  plan->iws.configure(opts);
  plan->lhs_iws.configure(opts);
  plan->build.begin_build();

  // Vote with every reference of the iteration: the LHS against y's
  // distribution contributes one vote, the RHS references against x's.
  // When x and y are aligned (the common case) this is exactly the paper's
  // most-local-references rule over all three references.
  const std::span<const i64> batches[] = {ia, ib, ic};
  plan->iters =
      partition_iterations(p, iter_dist, x_dist, batches, plan->iws, rule);

  plan->ia = dist::apply_remap<i64>(p, plan->iters.remap, ia);
  plan->ib = dist::apply_remap<i64>(p, plan->iters.remap, ib);
  plan->ic = dist::apply_remap<i64>(p, plan->iters.remap, ic);
  plan->src_ia.assign(ia.begin(), ia.end());
  plan->src_ib.assign(ib.begin(), ib.end());
  plan->src_ic.assign(ic.begin(), ic.end());

  localize(p, y_dist, plan->ia, plan->lhs_iws, plan->lhs);
  plan->lhs_iws.capture(plan->lhs_snap);
  const std::span<const i64> rhs[] = {plan->ib, plan->ic};
  localize_many(p, x_dist, rhs, plan->iws, plan->rhs);
  plan->iws.capture(plan->rhs_snap);
  plan->build.mark_built();
  return plan;
}

bool SingleStatementLoop::repair(rt::Process& p, SingleStatementPlan& plan,
                                 std::span<const i64> ia,
                                 std::span<const i64> ib,
                                 std::span<const i64> ic,
                                 const dist::Distribution& y_dist,
                                 const dist::Distribution& x_dist) {
  const bool ok =
      plan.build.ready() && plan.options().repair_enabled() &&
      static_cast<i64>(ia.size()) == plan.iters.remap.nlocal_from &&
      ia.size() == plan.src_ia.size() && ib.size() == plan.src_ib.size() &&
      ic.size() == plan.src_ic.size();
  if (rt::allreduce_max(p, ok ? i64{0} : i64{1}) != 0) {
    ++p.stats().repair_fallbacks;
    return false;
  }

  plan.build.begin_build();

  diff_slice(ia, plan.src_ia, plan.delta_pos, plan.delta_val);
  dist::apply_remap_delta(p, plan.iters.remap, plan.delta_pos, plan.delta_val,
                          plan.ia, plan.remap_ws);
  diff_slice(ib, plan.src_ib, plan.delta_pos, plan.delta_val);
  dist::apply_remap_delta(p, plan.iters.remap, plan.delta_pos, plan.delta_val,
                          plan.ib, plan.remap_ws);
  diff_slice(ic, plan.src_ic, plan.delta_pos, plan.delta_val);
  dist::apply_remap_delta(p, plan.iters.remap, plan.delta_pos, plan.delta_val,
                          plan.ic, plan.remap_ws);
  p.clock().charge_ops(static_cast<i64>(ia.size() + ib.size() + ic.size()),
                       p.params().mem_us_per_word);

  if (!repair_localize(p, y_dist, plan.ia, plan.lhs_iws, plan.lhs_snap,
                       plan.lhs)) {
    return false;
  }
  plan.lhs_iws.capture(plan.lhs_snap);
  const std::span<const i64> rhs[] = {plan.ib, plan.ic};
  if (!repair_localize_many(p, x_dist, rhs, plan.iws, plan.rhs_snap,
                            plan.rhs)) {
    return false;
  }
  plan.iws.capture(plan.rhs_snap);
  plan.build.mark_built();
  return true;
}

}  // namespace chaos::core
