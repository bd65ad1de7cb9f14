// Human-readable run reports for examples and experiment harnesses.
#pragma once

#include "hpa/hpa.hpp"

namespace rms::obs {
struct RunProfile;
struct RunSection;
}

namespace rms::hpa {

/// Print per-pass candidate/large counts and timings plus swap statistics
/// (the quick view examples show after a run). With a profile, additionally
/// render the per-pass attribution table, the critical path, and loud
/// warnings when the trace ring or the profiler buffer dropped events.
void print_report(const HpaResult& result,
                  const obs::RunProfile* profile = nullptr);

/// Describe a configuration in one line (policy, limit, node counts).
std::string describe(const HpaConfig& config);

/// One run as a run-artifact section: describe() and the key parameters as
/// its configuration, and every pass with its candidate/large counts and
/// per-node vectors.
obs::RunSection run_section(const HpaConfig& config, const HpaResult& result);

}  // namespace rms::hpa
