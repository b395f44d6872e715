#ifndef MTIA_PE_WORK_QUEUE_ENGINE_H_
#define MTIA_PE_WORK_QUEUE_ENGINE_H_

/**
 * @file
 * Work Queue Engine: the eager-mode job-launch path. MTIA 1 launched
 * jobs by having the (single-core) control processor write per-PE
 * descriptors one at a time; MTIA 2i's quad-core Control Core
 * broadcasts Work Queue descriptors and each PE's WQE DMAs its
 * request, cutting launch time by as much as 80% — under 1 us to
 * launch and under 0.5 us to replace a job (Section 3.3). The times
 * are closed-form; KernelCostModel charges them per launch through
 * Device::jobLaunchTime(). WorkQueueConfig::control_cores is the
 * chip's one Control Core count.
 */

#include "sim/types.h"

namespace mtia {

/** Launch-path configuration. */
struct WorkQueueConfig
{
    bool broadcast = true;        ///< Control Core WQ broadcast support
    bool pe_wqe = true;           ///< per-PE Work Queue Engine DMA
    unsigned control_cores = 4;   ///< Control Core core count (> 0)
    /** Time to compose and post one WQ descriptor. */
    Tick descriptor_cost = fromNanos(60.0);
    /** Per-PE WQE DMA pull cost (overlapped across PEs). */
    Tick wqe_pull_cost = fromNanos(250.0);

    /** The MTIA 1-era launch path. */
    static WorkQueueConfig
    mtia1()
    {
        WorkQueueConfig cfg;
        cfg.broadcast = false;
        cfg.pe_wqe = false;
        cfg.control_cores = 1;
        return cfg;
    }
};

/** Job-launch timing model. */
class WorkQueueEngine
{
  public:
    /** @pre cfg.control_cores > 0 */
    explicit WorkQueueEngine(WorkQueueConfig cfg = {});

    const WorkQueueConfig &config() const { return cfg_; }

    /** Time to launch a fresh job across @p num_pes PEs. */
    Tick launchTime(unsigned num_pes) const;

    /**
     * Time to replace the job on already-armed PEs (descriptors are
     * pre-staged; only the swap broadcast remains).
     */
    Tick replaceTime(unsigned num_pes) const;

  private:
    WorkQueueConfig cfg_;
};

} // namespace mtia

#endif // MTIA_PE_WORK_QUEUE_ENGINE_H_
