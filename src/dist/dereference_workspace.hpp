// Reusable scratch for TranslationTable::dereference_into and
// dereference_flat — the dist-layer sibling of core::InspectorWorkspace and
// ExecutorWorkspace. Every buffer either protocol touches lives here and
// grows monotonically, so a warm repeat call (same or smaller query shape)
// performs ZERO heap allocations: request staging, the CSR prefixes, the
// incoming query block, and both Entry payload buffers are all
// resize-in-place.
//
// One workspace serves any number of sequential dereference calls
// against any table (it carries no table state, only capacity). It is NOT
// shareable across concurrent calls — one workspace per logical process,
// like the other workspaces in the tree. Wire protocol: DESIGN.md §9.
#pragma once

#include <vector>

#include "dist/translation_table.hpp"

namespace chaos::dist {

class DereferenceWorkspace {
 public:
  DereferenceWorkspace() = default;

 private:
  friend class TranslationTable;

  std::vector<i64> counts_;        ///< 2P: my per-home counts + peer counts
  std::vector<i32> home_;          ///< per query: home rank, or -1 if answered
  std::vector<i64> send_offsets_;  ///< P+1: request CSR prefix (post-dedup)
  std::vector<i64> recv_offsets_;  ///< P+1: incoming-query CSR prefix
  std::vector<i64> cursor_;        ///< P: segment fill cursors
  std::vector<i64> req_;           ///< flat sorted+deduped request globals
  std::vector<i64> peer_req_;      ///< globals peers ask this process
  std::vector<Entry> reply_;       ///< answers shipped back to peers
  std::vector<Entry> answers_;     ///< answers received, aligned with req_
  std::vector<i64> answer_offsets_;  ///< P+1: answer CSR prefix (nested)
};

}  // namespace chaos::dist
