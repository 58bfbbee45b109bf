// Environment-variable helpers for runtime knobs.
#pragma once

#include <cstddef>

namespace psml {

// Returns the value of `name` parsed as size_t, or `fallback` when unset or
// unparsable.
std::size_t env_size_t(const char* name, std::size_t fallback);

// Returns the value of `name` parsed as double, or `fallback`.
double env_double(const char* name, double fallback);

}  // namespace psml
