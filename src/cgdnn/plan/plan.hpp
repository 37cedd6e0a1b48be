// ExecutionPlan: the product of the planning pass for one (net, batch,
// thread count) — the activation arena layout (arena_plan.hpp intervals
// with offsets) and the size of the shared serial conv column slot. It
// serializes to JSON for `cgdnn_plan --json`.
#pragma once

#include <string>

#include "cgdnn/plan/arena_plan.hpp"

namespace cgdnn::plan {

struct ExecutionPlan {
  index_t batch = 0;
  int threads = 0;            ///< thread count the plan targets
  ArenaLayout arena;          ///< empty intervals = arena disabled
  index_t col_slot_bytes = 0; ///< shared serial col scratch size (0 = none)

  std::string ToJson() const;
};

}  // namespace cgdnn::plan
