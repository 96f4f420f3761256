#include "kernels/blocking.h"

#include <sstream>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace hetacc::kernels {

namespace {

long long sysconf_or_zero(int name) {
#if defined(__unix__) || defined(__APPLE__)
  const long v = ::sysconf(name);
  return v > 0 ? static_cast<long long>(v) : 0;
#else
  (void)name;
  return 0;
#endif
}

}  // namespace

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

}  // namespace hetacc::kernels
