// Drives net::Fabric::deliver, the path every simulated message takes, the
// way the fabric tests need it: every transfer is posted before the engine
// runs (so transfers a test treats as concurrent are planned together, in
// posting order), the engine runs to completion, and each transfer reports
// the simulated time its delivery callback fired, or kSimTimeNever when the
// fabric dropped it.
#pragma once

#include <cstdint>
#include <vector>

#include "net/fabric.hpp"

namespace dacc::testing {

struct Transfer {
  net::NodeId src = 0;
  net::NodeId dst = 0;
  std::uint64_t bytes = 0;
  SimTime earliest = 0;
};

inline std::vector<SimTime> deliver_all(
    net::Fabric& fabric, const std::vector<Transfer>& transfers) {
  std::vector<SimTime> at(transfers.size(), kSimTimeNever);
  for (std::size_t i = 0; i < transfers.size(); ++i) {
    const Transfer& t = transfers[i];
    fabric.deliver(t.src, t.dst, t.bytes, t.earliest,
                   [&fabric, &at, i] { at[i] = fabric.engine().now(); });
  }
  fabric.engine().run();
  return at;
}

/// One transfer on its own.
inline SimTime deliver_one(net::Fabric& fabric, const Transfer& transfer) {
  return deliver_all(fabric, {transfer})[0];
}

}  // namespace dacc::testing
