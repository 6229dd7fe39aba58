// Umbrella header: the benchmarks' loop oracles and kernels, the
// recurrence-spec layer, the spec verifier, the src/exec backends and the
// runtime variant registry. A DP runs either as a registry row
// (find_variant(...)->run) or as exec::run_*(*make_*_spec(...)).
#pragma once

#include "dp/common.hpp"         // IWYU pragma: export
#include "dp/fw.hpp"             // IWYU pragma: export
#include "dp/ge.hpp"             // IWYU pragma: export
#include "dp/registry.hpp"       // IWYU pragma: export
#include "dp/spec/spec.hpp"      // IWYU pragma: export
#include "dp/spec/specs.hpp"     // IWYU pragma: export
#include "dp/sw.hpp"             // IWYU pragma: export
#include "dp/verify/verify.hpp"  // IWYU pragma: export
#include "exec/backend.hpp"      // IWYU pragma: export
