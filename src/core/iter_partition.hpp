// Loop iteration partitioning (Section 4.3): after the data arrays have been
// (re)distributed, each loop iteration is assigned to one process under the
// "almost owner computes" rule — by default the process that owns the
// largest number of the iteration's distributed-array references (ties go to
// the lowest rank). The alternative classic owner-computes rule (execute on
// the owner of the first left-hand side) is provided for the ablation bench.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "dist/distribution.hpp"
#include "dist/remap.hpp"
#include "rt/machine.hpp"

namespace chaos::core {

class InspectorWorkspace;

enum class IterRule : u8 {
  MostLocalReferences,  ///< paper's default ("almost owner computes")
  OwnerComputes,        ///< owner of the first reference batch's element
};

struct IterationPartition {
  /// Irregular distribution of the iteration space (who runs which
  /// iteration).
  std::shared_ptr<const dist::Distribution> iter_dist;
  /// Remap plan from the initial iteration layout to iter_dist; apply it to
  /// every iteration-aligned array (indirection arrays first of all).
  dist::RemapPlan remap;
  /// Iterations that changed process.
  i64 moved_iterations = 0;
};

/// Collective. @p iter_space is the current (usually BLOCK) distribution of
/// the iteration index set; @p ref_batches holds, per indirection array, this
/// process's slice of global data-array indices (aligned with iter_space,
/// one value per local iteration); @p data_dist is the distribution of the
/// data arrays those indices point into.
[[nodiscard]] IterationPartition partition_iterations(
    rt::Process& p, const dist::Distribution& iter_space,
    const dist::Distribution& data_dist,
    std::span<const std::span<const i64>> ref_batches,
    IterRule rule = IterRule::MostLocalReferences, i64 page_size = 4096);

/// As above, deduplicating the references through @p ws — a plan's own
/// InspectorWorkspace, so a plan rebuilt in place reuses its warm dedup
/// table and dereference scratch. Same result and modeled charges.
[[nodiscard]] IterationPartition partition_iterations(
    rt::Process& p, const dist::Distribution& iter_space,
    const dist::Distribution& data_dist,
    std::span<const std::span<const i64>> ref_batches, InspectorWorkspace& ws,
    IterRule rule = IterRule::MostLocalReferences, i64 page_size = 4096);

}  // namespace chaos::core
