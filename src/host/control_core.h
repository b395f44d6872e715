#ifndef MTIA_HOST_CONTROL_CORE_H_
#define MTIA_HOST_CONTROL_CORE_H_

/**
 * @file
 * Control Core: the quad-core RISC-V processor coordinating the 64
 * PEs. Models the placement of its working memory (host memory vs
 * device SRAM), which decides whether the Section 5.5 PCIe-ordering
 * deadlock can form. Its part in eager-mode job launch (descriptor
 * broadcast, split across WorkQueueConfig::control_cores) is the
 * WorkQueueEngine's model.
 */

#include <cstdint>

#include "noc/deadlock.h"
#include "sim/types.h"

namespace mtia {

/** Where the Control Core's working data structure lives. */
enum class ControlMemLocation : std::uint8_t {
    HostMemory,  ///< original firmware: read over PCIe
    DeviceSram,  ///< mitigated firmware: no host access on the path
};

/** Static Control Core configuration. */
struct ControlCoreConfig
{
    ControlMemLocation working_mem = ControlMemLocation::HostMemory;
};

/** The chip's coordination processor. */
class ControlCore
{
  public:
    explicit ControlCore(ControlCoreConfig cfg = {}) : cfg_(cfg) {}

    const ControlCoreConfig &config() const { return cfg_; }

    /** Apply the firmware mitigation that relocates working memory. */
    void relocateWorkingMem(ControlMemLocation loc)
    {
        cfg_.working_mem = loc;
    }

    /**
     * Build the wait-for graph of the high-load serialization
     * scenario: PE utilization at 100%, the PCIe controller with a
     * queue of in-flight transactions, and the NoC serializing
     * transactions behind a Control Core operation. Whether the graph
     * contains a cycle depends on where the Control Core's working
     * memory lives.
     */
    WaitForGraph buildHighLoadScenario() const;

  private:
    ControlCoreConfig cfg_;
};

} // namespace mtia

#endif // MTIA_HOST_CONTROL_CORE_H_
