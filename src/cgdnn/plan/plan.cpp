#include "cgdnn/plan/plan.hpp"

#include <sstream>

#include "cgdnn/plan/json_lite.hpp"

namespace cgdnn::plan {

std::string ExecutionPlan::ToJson() const {
  std::ostringstream os;
  os << "{\n";
  os << "  \"batch\": " << batch << ",\n";
  os << "  \"threads\": " << threads << ",\n";
  os << "  \"col_slot_bytes\": " << col_slot_bytes << ",\n";
  os << "  \"arena_total_bytes\": " << arena.total_bytes << ",\n";
  os << "  \"arena_per_plane_bytes\": " << arena.per_plane_bytes << ",\n";
  os << "  \"intervals\": [";
  for (std::size_t i = 0; i < arena.intervals.size(); ++i) {
    const auto& iv = arena.intervals[i];
    os << (i ? ",\n    " : "\n    ");
    os << "{\"name\": \"" << JsonEscape(iv.name) << "\", "
       << "\"kind\": " << static_cast<int>(iv.kind)
       << ", \"blob_id\": " << iv.blob_id << ", \"start\": " << iv.start
       << ", \"end\": " << iv.end << ", \"bytes\": " << iv.bytes
       << ", \"offset\": " << iv.offset
       << ", \"preserved\": " << (iv.preserved ? "true" : "false") << "}";
  }
  os << "]\n";
  os << "}\n";
  return os.str();
}

}  // namespace cgdnn::plan
