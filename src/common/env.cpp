#include "common/env.hpp"

#include <cstdlib>

namespace psml {

std::size_t env_size_t(const char* name, std::size_t fallback) {
  const char* e = std::getenv(name);
  if (e == nullptr || *e == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(e, &end, 10);
  if (end == e) return fallback;
  return static_cast<std::size_t>(v);
}

double env_double(const char* name, double fallback) {
  const char* e = std::getenv(name);
  if (e == nullptr || *e == '\0') return fallback;
  char* end = nullptr;
  const double v = std::strtod(e, &end);
  if (end == e) return fallback;
  return v;
}

}  // namespace psml
