/**
 * @file
 * Memory request type shared by cores, the LLC, and the memory
 * controller.
 */

#ifndef REAPER_SIM_REQUEST_H
#define REAPER_SIM_REQUEST_H

#include <cstdint>

#include "sim/timing.h"

namespace reaper {
namespace sim {

/** A physical-address memory request (one cache line). */
struct MemRequest
{
    uint64_t addr = 0;    ///< physical byte address (line aligned)
    bool isWrite = false;
    int coreId = -1;
    Cycle arrival = 0;    ///< cycle the request entered the controller
    /** Issuing core's sequence number for a load: (coreId, seq) is
     *  where the data goes when the read completes. */
    uint64_t seq = 0;
};

/** Decoded DRAM coordinates of a request within one channel. */
struct DramAddr
{
    uint32_t channel = 0;
    uint32_t bank = 0;
    uint64_t row = 0;
    uint32_t col = 0;
};

} // namespace sim
} // namespace reaper

#endif // REAPER_SIM_REQUEST_H
