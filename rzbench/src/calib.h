/**
 * @file
 * Machine-speed calibration for host-clock metrics.
 *
 * On a shared host the CPU time of the same work drifts by tens of
 * percent over minutes as other tenants load the machine. Each rep
 * times a fixed reference computation that uses none of the library
 * (event-heap churn, buffer allocation and copies, a byte-table loop,
 * string-map inserts: the kinds of work the simulator does) a few times
 * between its phases; run.py divides host metrics by it, so a machine
 * that is uniformly slower reads the same, while a change to the
 * library moves only the workload's side of the ratio.
 */
#pragma once

#include <cstdint>

namespace rzbench {

/// Runs the reference computation once (~10 ms); returns its CPU ns.
uint64_t calibration_cpu_ns();

} // namespace rzbench
