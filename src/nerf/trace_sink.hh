/**
 * @file
 * Observer interface for embedding-grid memory accesses.
 *
 * The hash encoding reports every hash-table read (feed-forward,
 * Step 3-1) and write (back-propagation) to an attached TraceSink.
 * The trace module (src/trace) implements collectors that reproduce the
 * paper's memory-access-pattern studies (Figs 8-10), and the accelerator
 * simulator (src/accel) replays captured traces through the FRM/BUM
 * units.
 */

#ifndef INSTANT3D_NERF_TRACE_SINK_HH
#define INSTANT3D_NERF_TRACE_SINK_HH

#include <cstdint>

namespace instant3d {

/** One hash-table access from embedding-grid interpolation. */
struct GridAccess
{
    uint32_t address;   //!< Entry index within the level's hash table.
    uint16_t level;     //!< Multiresolution level.
    uint8_t corner;     //!< Which of the 8 cube corners (bit0=x,1=y,2=z).
    bool isWrite;       //!< False: feed-forward read. True: BP update.
    uint32_t pointId;   //!< Monotonic id of the queried 3D point.
};

/** Receiver of grid accesses, in program order. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;
    virtual void record(const GridAccess &access) = 0;
};

} // namespace instant3d

#endif // INSTANT3D_NERF_TRACE_SINK_HH
