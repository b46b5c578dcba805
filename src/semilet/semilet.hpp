// Umbrella header for the SEMILET sequential engines: per-frame PODEM,
// forward-time propagation and reverse-time synchronization.
#pragma once

#include "semilet/frame_podem.hpp"   // IWYU pragma: export
#include "semilet/options.hpp"       // IWYU pragma: export
#include "semilet/propagate.hpp"     // IWYU pragma: export
#include "semilet/synchronize.hpp"   // IWYU pragma: export
