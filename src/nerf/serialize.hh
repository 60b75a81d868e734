/**
 * @file
 * Model checkpointing. The paper's telepresence motivation (Sec 1)
 * rests on shipping a reconstructed *model* (~20 MB) instead of raw
 * captures (~120 MB); this module provides the binary save/load path
 * for a trained NerfField -- optionally bundled with its occupancy
 * grid, so a serving process can reproduce the trainer's empty-space
 * skipping (and hence its rendered bits) exactly -- and reports its
 * wire size.
 *
 * Format (version 3): magic, version, field mode, per-group element
 * counts, occupancy presence + resolution, then raw little-endian
 * float32 parameters group by group, then (if present) the occupancy
 * grid's per-cell density estimates, then a CRC-32 over everything
 * before it. Any other version (including the pre-CRC version 2) is
 * rejected with CheckpointError::Version.
 *
 * Crash safety: saves stream to `path + ".tmp"`, fsync, then publish
 * by atomic rename, so the target path only ever holds the previous
 * or the complete new checkpoint -- never a torn one.
 */

#ifndef INSTANT3D_NERF_SERIALIZE_HH
#define INSTANT3D_NERF_SERIALIZE_HH

#include <cstdint>
#include <ostream>
#include <string>

#include "nerf/field.hh"
#include "nerf/occupancy_grid.hh"

namespace instant3d {

/**
 * Why a checkpoint operation failed. Distinguishing transient I/O
 * faults from structural mismatches lets callers (SceneRegistry) pick
 * retry vs reject.
 */
enum class CheckpointError : uint8_t
{
    None = 0,  //!< Success.
    Io,        //!< open/read/write/fsync/rename failed (maybe transient).
    Magic,     //!< Not a checkpoint file.
    Version,   //!< Format version is not the current one.
    Shape,     //!< Mode/group/occupancy layout differs from the model.
    Truncated, //!< File ends before the format says it should.
    Crc,       //!< Stored CRC-32 does not match the payload.
};

/** Stable lower-case name of an error ("io", "crc", ...). */
const char *checkpointErrorName(CheckpointError err);

std::ostream &operator<<(std::ostream &os, CheckpointError err);

/**
 * Serialize all trainable parameters, plus the occupancy grid's cell
 * densities when `occ` is non-null. The write is crash-safe: on any
 * failure the temp file is removed and the target path is untouched.
 */
CheckpointError saveCheckpoint(NerfField &field, const OccupancyGrid *occ,
                               const std::string &path);

/**
 * Tuning for the streaming load path. Payload sections (parameter
 * groups, occupancy densities) are pulled through a bounded buffer of
 * `chunkBytes`, feeding the CRC incrementally, instead of one fread
 * per section -- so the loader's transient working set stays bounded
 * and a slow or failing disk surfaces per-chunk (fault points
 * `checkpoint.stream_short_read` / `checkpoint.stream_stall`).
 */
struct CheckpointStreamConfig
{
    /** Bounded-buffer size per payload read; 0 means "whole section
     *  in one read" (the legacy staged loader's I/O pattern). */
    size_t chunkBytes = 256u * 1024u;
};

/**
 * Load a checkpoint into a field (and, if `occ` is non-null, an
 * occupancy grid) constructed with the *same* configuration. The field
 * and grid are left unmodified in every failure case. A checkpoint's
 * occupancy section is discarded when `occ` is null (a caller that
 * passes an occupancy grid requires the file to carry one at the same
 * resolution, since serving with a different skipping pattern would
 * change rendered bits). Reads version 3 only.
 *
 * Payload bytes stream through a bounded buffer (see
 * CheckpointStreamConfig); restored params are bit-identical for any
 * chunk size. Section-staged: commits to the field/grid only after
 * the whole file (including CRC) has verified.
 */
CheckpointError loadCheckpoint(NerfField &field, OccupancyGrid *occ,
                               const std::string &path,
                               const CheckpointStreamConfig &stream =
                                   CheckpointStreamConfig{});

/** Serialize all trainable parameters (no occupancy section). */
CheckpointError saveField(NerfField &field, const std::string &path);

/** loadCheckpoint without an occupancy grid. */
CheckpointError loadField(NerfField &field, const std::string &path);

/** Header summary of a checkpoint file, for registry-side dispatch. */
struct CheckpointInfo
{
    bool valid = false;    //!< Magic/version recognized.
    uint32_t version = 0;  //!< Format version of the file.
    bool decoupled = false;
    uint32_t numGroups = 0;
    bool hasOccupancy = false;
    int occResolution = 0; //!< Cells per axis (0 when no occupancy).
};

/** Read a checkpoint's header without touching any model state. */
CheckpointInfo peekCheckpoint(const std::string &path);

/** Total trainable-parameter bytes (float32 wire format). */
size_t fieldStorageBytes(NerfField &field);

} // namespace instant3d

#endif // INSTANT3D_NERF_SERIALIZE_HH
