#include "service/cache.hpp"

#include "core/synthesizer.hpp"
#include "dfg/parse.hpp"
#include "passes/pipeline.hpp"
#include "service/diskcache/diskcache.hpp"

namespace lbist {

std::string synthesis_cache_key(const Dfg& dfg, const Schedule& sched,
                                const std::vector<ModuleProto>& protos,
                                const SynthesisOptions& opts, int patterns) {
  std::string key = print_dfg(dfg, &sched);
  key += "|spec=";
  for (const ModuleProto& p : protos) {
    key += p.label();
    key += ';';
  }
  // The IR snapshot's "options" member: every option that changes what is
  // synthesized and never opts.trace / opts.events, which only change what
  // gets recorded about a run — a traced request may be served from a
  // cache entry produced without tracing (and vice versa).
  key += "|options=";
  key += options_to_json(opts).dump_compact();
  key += "|patterns=";
  key += std::to_string(patterns);
  return key;
}

std::optional<Json> SynthesisCache::get(const std::string& key) {
  if (auto hit = LruCache<Json>::get(key)) return hit;
  if (disk_ == nullptr) return std::nullopt;
  auto stored = disk_->get(key);
  if (!stored.has_value()) return std::nullopt;
  Json value;
  try {
    value = Json::parse(*stored);
  } catch (const std::exception&) {
    // A record that stopped parsing (format drift across versions) is a
    // miss, not an error; the fresh result will overwrite it.
    return std::nullopt;
  }
  persistent_hits_.fetch_add(1, std::memory_order_relaxed);
  LruCache<Json>::put(key, value);
  return value;
}

void SynthesisCache::put(const std::string& key, Json v) {
  if (disk_ != nullptr) disk_->put(key, v.dump_compact());
  LruCache<Json>::put(key, std::move(v));
}

std::string pass_cache_key(const std::string& pass_name,
                           const Json& snapshot) {
  Json canonical = Json::object();
  for (const std::string& key : snapshot.keys()) {
    if (key == "writer") continue;
    canonical.set(key, snapshot.at(key));
  }
  return "pass:" + pass_name + ":" + canonical.dump_compact();
}

}  // namespace lbist
