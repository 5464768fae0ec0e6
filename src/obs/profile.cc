#include "obs/profile.h"

#include <atomic>

#include "obs/stats.h"

namespace treeq {
namespace obs {

void QueryProfile::WriteJson(std::ostream& os) const {
  os << "{\"id\": " << id << ", \"seq\": " << seq << ", \"language\": \""
     << JsonEscape(language) << "\", \"query_hash\": " << query_hash
     << ", \"query\": \"" << JsonEscape(query) << "\", \"document\": \""
     << JsonEscape(document) << "\", \"engine\": \"" << JsonEscape(engine)
     << "\", \"explain\": \"" << JsonEscape(explain)
     << "\", \"route_rationale\": \"" << JsonEscape(route_rationale)
     << "\", \"canonical_hash\": \"" << JsonEscape(canonical_hash)
     << "\", \"cache_hit\": " << (cache_hit ? "true" : "false")
     << ", \"result_cache_hit\": " << (result_cache_hit ? "true" : "false")
     << ", \"degraded\": " << (degraded ? "true" : "false")
     << ", \"ok\": " << (ok ? "true" : "false") << ", \"status\": \""
     << JsonEscape(status) << "\", \"queue_wait_ns\": " << queue_wait_ns
     << ", \"compile_ns\": " << compile_ns
     << ", \"execute_ns\": " << execute_ns
     << ", \"total_ns\": " << total_ns() << ", \"visits\": " << visits
     << ", \"words_scanned\": " << words_scanned
     << ", \"label_index_hits\": " << label_index_hits
     << ", \"eval_cache_hits\": " << eval_cache_hits
     << ", \"estimated_visits\": " << estimated_visits << "}";
}

uint64_t HashQueryText(std::string_view text) {
  // FNV-1a, 64-bit.
  uint64_t h = 14695981039346656037ull;
  for (char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t NextQueryId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace obs
}  // namespace treeq
