#include "kernels/blocking.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <mutex>
#include <optional>
#include <sstream>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace hetacc::kernels {

namespace {

struct Registry {
  std::mutex mu;
  std::array<std::optional<BlockingParams>, kNumDatapaths> tuned;
};

Registry& registry() {
  static Registry r;
  return r;
}

constexpr const char* kNames[kNumDatapaths] = {"f32", "f32d", "f64", "i8"};

/// Clamp a candidate into the ranges the driver's packing logic supports.
/// MC stays a multiple of MR (4) so packed A blocks hold whole panels.
BlockingParams sanitize(Datapath dp, BlockingParams bp) {
  bp.mc = std::clamp(bp.mc, 8, 8192);
  bp.mc -= bp.mc % 4;
  bp.kc = std::clamp(bp.kc, 16, 16384);
  if (!kc_tunable(dp)) bp.kc = default_blocking(dp).kc;
  if (bp.nc != 0) bp.nc = std::clamp(bp.nc, 32, 1 << 20);
  bp.grain = std::clamp(bp.grain, 0, 4096);
  return bp;
}

long long sysconf_or_zero(int name) {
#if defined(__unix__) || defined(__APPLE__)
  const long v = ::sysconf(name);
  return v > 0 ? static_cast<long long>(v) : 0;
#else
  (void)name;
  return 0;
#endif
}

/// Scans `obj` (one flat JSON object) for `"key": <int>`; returns fallback
/// when absent or malformed.
int field_int(const std::string& obj, const char* key, int fallback) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t at = obj.find(needle);
  if (at == std::string::npos) return fallback;
  int v = fallback;
  if (std::sscanf(obj.c_str() + at + needle.size(), " %d", &v) != 1) {
    return fallback;
  }
  return v;
}

/// Scans `obj` for `"key": "<string>"`.
std::string field_str(const std::string& obj, const char* key) {
  const std::string needle = std::string("\"") + key + "\": \"";
  std::size_t at = obj.find(needle);
  std::size_t skip = needle.size();
  if (at == std::string::npos) {
    const std::string tight = std::string("\"") + key + "\":\"";
    at = obj.find(tight);
    if (at == std::string::npos) return {};
    skip = tight.size();
  }
  const std::size_t end = obj.find('"', at + skip);
  if (end == std::string::npos) return {};
  return obj.substr(at + skip, end - (at + skip));
}

}  // namespace

const char* datapath_name(Datapath dp) {
  const int i = static_cast<int>(dp);
  return (i >= 0 && i < kNumDatapaths) ? kNames[i] : "?";
}

bool datapath_from_name(const std::string& name, Datapath& out) {
  for (int i = 0; i < kNumDatapaths; ++i) {
    if (name == kNames[i]) {
      out = static_cast<Datapath>(i);
      return true;
    }
  }
  return false;
}

BlockingParams default_blocking(Datapath dp) {
  (void)dp;
  return BlockingParams{};  // MC=96 KC=256 NC=off grain=auto for every path
}

bool kc_tunable(Datapath dp) {
  return dp == Datapath::kI8;
}

BlockingParams blocking_for(Datapath dp) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  const auto& slot = r.tuned[static_cast<std::size_t>(dp)];
  return slot ? *slot : default_blocking(dp);
}

void set_blocking(Datapath dp, const BlockingParams& bp) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.tuned[static_cast<std::size_t>(dp)] = sanitize(dp, bp);
}

void clear_tuned_blocking() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (auto& slot : r.tuned) slot.reset();
}

std::string machine_topology_key() {
  long long l1d = 0, l2 = 0, l3 = 0;
#if defined(_SC_LEVEL1_DCACHE_SIZE)
  l1d = sysconf_or_zero(_SC_LEVEL1_DCACHE_SIZE);
#endif
#if defined(_SC_LEVEL2_CACHE_SIZE)
  l2 = sysconf_or_zero(_SC_LEVEL2_CACHE_SIZE);
#endif
#if defined(_SC_LEVEL3_CACHE_SIZE)
  l3 = sysconf_or_zero(_SC_LEVEL3_CACHE_SIZE);
#endif
  long long cores = 0;
#if defined(_SC_NPROCESSORS_ONLN)
  cores = sysconf_or_zero(_SC_NPROCESSORS_ONLN);
#endif
  std::ostringstream os;
  os << "l1d" << l1d << "-l2" << l2 << "-l3" << l3 << "-c" << cores;
  return os.str();
}

std::string tuning_cache_to_json() {
  const std::string machine = machine_topology_key();
  std::ostringstream os;
  os << "{\n  \"version\": " << kTuningCacheVersion << ",\n  \"machine\": \""
     << machine << "\",\n  \"entries\": [\n";
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  bool first = true;
  for (int i = 0; i < kNumDatapaths; ++i) {
    const auto& slot = r.tuned[static_cast<std::size_t>(i)];
    if (!slot) continue;
    if (!first) os << ",\n";
    first = false;
    os << "    {\"datapath\": \"" << kNames[i] << "\", \"machine\": \""
       << machine << "\", \"mc\": " << slot->mc << ", \"kc\": " << slot->kc
       << ", \"nc\": " << slot->nc << ", \"grain\": " << slot->grain << "}";
  }
  os << "\n  ]\n}\n";
  return os.str();
}

int load_tuning_cache_json(const std::string& text) {
  if (field_int(text, "version", -1) != kTuningCacheVersion) return 0;
  const std::string machine = machine_topology_key();
  // Walk the flat entry objects after the "entries" key.
  const std::size_t entries_at = text.find("\"entries\"");
  if (entries_at == std::string::npos) return 0;
  int applied = 0;
  std::size_t pos = entries_at;
  while (true) {
    const std::size_t open = text.find('{', pos);
    if (open == std::string::npos) break;
    const std::size_t close = text.find('}', open);
    if (close == std::string::npos) break;
    const std::string obj = text.substr(open, close - open + 1);
    pos = close + 1;
    Datapath dp;
    if (!datapath_from_name(field_str(obj, "datapath"), dp)) continue;
    if (field_str(obj, "machine") != machine) continue;
    const BlockingParams def = default_blocking(dp);
    BlockingParams bp;
    bp.mc = field_int(obj, "mc", def.mc);
    bp.kc = field_int(obj, "kc", def.kc);
    bp.nc = field_int(obj, "nc", def.nc);
    bp.grain = field_int(obj, "grain", def.grain);
    set_blocking(dp, bp);
    ++applied;
  }
  return applied;
}

int load_tuning_cache_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return -1;
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  return load_tuning_cache_json(text);
}

bool save_tuning_cache_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::string text = tuning_cache_to_json();
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  std::fclose(f);
  return ok;
}

}  // namespace hetacc::kernels
