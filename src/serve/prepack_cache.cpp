#include "serve/prepack_cache.h"

#include <algorithm>
#include <stdexcept>

namespace hetacc::serve {

PrepackCache::Lease PrepackCache::acquire(const std::string& key,
                                          const Builder& build) {
  if (share_) {
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      Entry& e = it->second;
      if (!e.corrupt && e.bundle->content_crc() == e.crc) {
        ++e.refs;
        ++stats_.hits;
        stats_.bytes_saved += e.bytes;
        return {e.bundle, key, true, false};
      }
      // Scrub: the resident master copy is corrupted. Re-derive a clean
      // bundle and swap it in for this and future leases; peers that already
      // adopted the old pointer keep their (on-chip) copies alive — only the
      // cache's hand-out changes. Counts as a miss: the lease paid a build.
      auto fresh = build();
      if (!fresh) {
        throw std::logic_error("PrepackCache: builder returned null bundle");
      }
      const long long fresh_bytes = fresh->resident_bytes();
      stats_.resident_bytes += fresh_bytes - e.bytes;
      stats_.peak_resident_bytes =
          std::max(stats_.peak_resident_bytes, stats_.resident_bytes);
      e.bundle = std::move(fresh);
      e.bytes = fresh_bytes;
      e.crc = e.bundle->content_crc();
      e.corrupt = false;
      ++e.refs;
      ++stats_.misses;
      ++stats_.scrubs;
      return {e.bundle, key, false, true};
    }
  }
  Lease lease;
  lease.bundle = build();
  if (!lease.bundle) {
    throw std::logic_error("PrepackCache: builder returned null bundle");
  }
  lease.key = share_ ? key : key + "#" + std::to_string(serial_++);
  lease.hit = false;
  Entry e;
  e.bundle = lease.bundle;
  e.refs = 1;
  e.bytes = lease.bundle->resident_bytes();
  e.crc = e.bundle->content_crc();
  stats_.resident_bytes += e.bytes;
  stats_.peak_resident_bytes =
      std::max(stats_.peak_resident_bytes, stats_.resident_bytes);
  ++stats_.misses;
  entries_.emplace(lease.key, std::move(e));
  return lease;
}

void PrepackCache::release(const Lease& lease) {
  auto it = entries_.find(lease.key);
  if (it == entries_.end() || it->second.refs <= 0) {
    throw std::logic_error("PrepackCache: release without a live lease on '" +
                           lease.key + "'");
  }
  if (--it->second.refs == 0) {
    stats_.resident_bytes -= it->second.bytes;
    ++stats_.evictions;
    entries_.erase(it);
  }
}

bool PrepackCache::corrupt_resident(const std::string& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  it->second.corrupt = true;
  return true;
}

long long PrepackCache::refcount(const std::string& key) const {
  auto it = entries_.find(key);
  return it == entries_.end() ? 0 : it->second.refs;
}

}  // namespace hetacc::serve
