#include "nerf/serialize.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <vector>

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#endif

#include "common/crc32.hh"
#include "common/fault_injection.hh"

namespace instant3d {

namespace {

constexpr uint32_t magicWord = 0x49334446u; // "I3DF"
constexpr uint32_t formatVersion = 3u;      // v3 = v2 + trailing CRC-32

// Header layout (all uint32): magic, version, decoupled flag, group
// count, occupancy-present flag, occupancy resolution.
constexpr size_t headerWords = 6;

/**
 * fwrite that feeds the running CRC and honors the short-write fault
 * point: a fired fault tears the write (a prefix lands, the call
 * fails), exactly like ENOSPC or a crash mid-write.
 */
bool
writeBytes(std::FILE *f, const void *data, size_t n, Crc32 *crc)
{
    if (fault::shouldFire(fault::Point::CheckpointShortWrite)) {
        std::fwrite(data, 1, n / 2, f);
        return false;
    }
    if (std::fwrite(data, 1, n, f) != n)
        return false;
    if (crc)
        crc->update(data, n);
    return true;
}

/**
 * fread that feeds the running CRC. A fired short-read fault reports
 * Io (transient EIO); a genuinely short file reports Truncated.
 */
bool
readBytes(std::FILE *f, void *data, size_t n, Crc32 *crc,
          CheckpointError &err)
{
    if (fault::shouldFire(fault::Point::CheckpointShortRead)) {
        err = CheckpointError::Io;
        return false;
    }
    if (std::fread(data, 1, n, f) != n) {
        err = CheckpointError::Truncated;
        return false;
    }
    if (crc)
        crc->update(data, n);
    return true;
}

/**
 * Pull a payload section of `n` bytes into `dst` through a bounded
 * buffer, feeding the running CRC chunk by chunk. Each chunk honors
 * the streaming fault points: stream_stall sleeps before the read (a
 * slow disk), stream_short_read fails it outright (transient EIO ->
 * Io). A genuinely short file reports Truncated. Bit-identical to a
 * single fread for any chunk size.
 */
bool
readChunked(std::FILE *f, void *dst, size_t n, size_t chunk_bytes,
            Crc32 *crc, CheckpointError &err)
{
    if (chunk_bytes == 0)
        chunk_bytes = n; // whole section in one read
    char *out = static_cast<char *>(dst);
    for (size_t done = 0; done < n;) {
        size_t take = std::min(n - done, chunk_bytes);
        fault::maybeDelay(fault::Point::CheckpointStreamStall);
        if (fault::shouldFire(fault::Point::CheckpointStreamShortRead)) {
            err = CheckpointError::Io;
            return false;
        }
        if (std::fread(out + done, 1, take, f) != take) {
            err = CheckpointError::Truncated;
            return false;
        }
        if (crc)
            crc->update(out + done, take);
        done += take;
    }
    return true;
}

/**
 * readChunked into a scratch buffer: advances the file position and
 * the CRC past `n` payload bytes without keeping them.
 */
bool
skipChunked(std::FILE *f, size_t n, size_t chunk_bytes, Crc32 *crc,
            CheckpointError &err)
{
    if (chunk_bytes == 0 || chunk_bytes > n)
        chunk_bytes = n;
    std::vector<char> scratch(std::max<size_t>(chunk_bytes, 1));
    for (size_t done = 0; done < n;) {
        size_t take = std::min(n - done, scratch.size());
        if (!readChunked(f, scratch.data(), take, take, crc, err))
            return false;
        done += take;
    }
    return true;
}

/** Push buffered and kernel-cached bytes to stable storage. */
bool
flushAndSync(std::FILE *f)
{
    if (std::fflush(f) != 0)
        return false;
    if (fault::shouldFire(fault::Point::CheckpointFsyncFail))
        return false;
#ifndef _WIN32
    if (::fsync(::fileno(f)) != 0)
        return false;
#endif
    return true;
}

/**
 * Make the rename that published `path` durable: fsync the directory
 * entry, best-effort (a failure here cannot corrupt anything -- the
 * rename either survives the crash or the previous file does).
 */
void
syncParentDir(const std::string &path)
{
#ifndef _WIN32
    size_t slash = path.find_last_of('/');
    std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash);
    if (dir.empty())
        dir = "/";
    int fd = ::open(dir.c_str(), O_RDONLY);
    if (fd >= 0) {
        ::fsync(fd);
        ::close(fd);
    }
#else
    (void)path;
#endif
}

} // namespace

const char *
checkpointErrorName(CheckpointError err)
{
    switch (err) {
    case CheckpointError::None:
        return "none";
    case CheckpointError::Io:
        return "io";
    case CheckpointError::Magic:
        return "magic";
    case CheckpointError::Version:
        return "version";
    case CheckpointError::Shape:
        return "shape";
    case CheckpointError::Truncated:
        return "truncated";
    case CheckpointError::Crc:
        return "crc";
    }
    return "invalid";
}

std::ostream &
operator<<(std::ostream &os, CheckpointError err)
{
    return os << checkpointErrorName(err);
}

CheckpointError
saveCheckpoint(NerfField &field, const OccupancyGrid *occ,
               const std::string &path)
{
    const std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        return CheckpointError::Io;

    auto groups = field.paramGroups();
    uint32_t header[headerWords] = {
        magicWord, formatVersion,
        static_cast<uint32_t>(field.mode() == FieldMode::Decoupled),
        static_cast<uint32_t>(groups.size()),
        static_cast<uint32_t>(occ != nullptr),
        static_cast<uint32_t>(occ ? occ->resolution() : 0),
    };
    Crc32 crc;
    bool ok = writeBytes(f, header, sizeof(header), &crc);

    for (auto gid : groups) {
        const auto &params = field.groupParams(gid);
        uint64_t n = params.size();
        ok = ok && writeBytes(f, &n, sizeof(n), &crc);
        ok = ok && writeBytes(f, params.data(),
                              params.size() * sizeof(float), &crc);
    }

    if (occ) {
        uint64_t cells = occ->numCells();
        ok = ok && writeBytes(f, &cells, sizeof(cells), &crc);
        std::vector<float> density(cells);
        for (uint64_t c = 0; c < cells; c++)
            density[c] = occ->cellDensity(c);
        ok = ok && writeBytes(f, density.data(), cells * sizeof(float),
                              &crc);
    }

    uint32_t digest = crc.value();
    if (fault::shouldFire(fault::Point::CheckpointCrcFlip))
        digest ^= 1u;
    ok = ok && writeBytes(f, &digest, sizeof(digest), nullptr);

    ok = ok && flushAndSync(f);
    std::fclose(f);
    if (!ok) {
        std::remove(tmp.c_str());
        return CheckpointError::Io;
    }
    // Atomic publication: the target path flips from the previous
    // checkpoint to the complete new one in a single rename.
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return CheckpointError::Io;
    }
    syncParentDir(path);
    return CheckpointError::None;
}

CheckpointError
loadCheckpoint(NerfField &field, OccupancyGrid *occ,
               const std::string &path,
               const CheckpointStreamConfig &stream)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return CheckpointError::Io;
    auto fail = [f](CheckpointError e) {
        std::fclose(f);
        return e;
    };

    Crc32 crc;
    CheckpointError err = CheckpointError::Io;
    uint32_t header[headerWords];
    if (!readBytes(f, header, sizeof(header), &crc, err))
        return fail(err);
    if (header[0] != magicWord)
        return fail(CheckpointError::Magic);
    if (header[1] != formatVersion)
        return fail(CheckpointError::Version);

    auto groups = field.paramGroups();
    bool decoupled = field.mode() == FieldMode::Decoupled;
    bool file_has_occ = header[4] != 0;
    if (header[2] != static_cast<uint32_t>(decoupled) ||
        header[3] != groups.size())
        return fail(CheckpointError::Shape);
    // A caller expecting an occupancy grid needs a checkpoint that
    // carries one at the same resolution; serving with a different
    // skipping pattern would change rendered bits.
    if (occ && (!file_has_occ ||
                header[5] != static_cast<uint32_t>(occ->resolution())))
        return fail(CheckpointError::Shape);

    // Stage into temporaries so a mid-file failure cannot leave the
    // field (or grid) half-loaded; payloads stream through a bounded
    // buffer so a slow or failing disk surfaces per-chunk.
    std::vector<std::vector<float>> staged(groups.size());
    for (size_t g = 0; g < groups.size(); g++) {
        uint64_t n = 0;
        if (!readBytes(f, &n, sizeof(n), &crc, err))
            return fail(err);
        if (n != field.groupParams(groups[g]).size())
            return fail(CheckpointError::Shape);
        staged[g].resize(n);
        if (!readChunked(f, staged[g].data(), n * sizeof(float),
                         stream.chunkBytes, &crc, err))
            return fail(err);
    }

    std::vector<float> staged_density;
    if (occ) {
        uint64_t cells = 0;
        if (!readBytes(f, &cells, sizeof(cells), &crc, err))
            return fail(err);
        if (cells != occ->numCells())
            return fail(CheckpointError::Shape);
        staged_density.resize(cells);
        if (!readChunked(f, staged_density.data(),
                         cells * sizeof(float), stream.chunkBytes,
                         &crc, err))
            return fail(err);
    } else if (file_has_occ) {
        // No grid wanted, but the CRC covers the whole payload: read
        // the occupancy section through the digest and discard it.
        uint64_t cells = 0;
        if (!readBytes(f, &cells, sizeof(cells), &crc, err))
            return fail(err);
        if (!skipChunked(f, cells * sizeof(float), stream.chunkBytes,
                         &crc, err))
            return fail(err);
    }

    uint32_t stored = 0;
    if (!readBytes(f, &stored, sizeof(stored), nullptr, err))
        return fail(err);
    if (stored != crc.value())
        return fail(CheckpointError::Crc);
    std::fclose(f);

    for (size_t g = 0; g < groups.size(); g++)
        field.groupParams(groups[g]) = std::move(staged[g]);
    if (occ) {
        for (size_t c = 0; c < staged_density.size(); c++)
            occ->setCellDensity(c, staged_density[c]);
    }
    return CheckpointError::None;
}

CheckpointError
saveField(NerfField &field, const std::string &path)
{
    return saveCheckpoint(field, nullptr, path);
}

CheckpointError
loadField(NerfField &field, const std::string &path)
{
    return loadCheckpoint(field, nullptr, path);
}

CheckpointInfo
peekCheckpoint(const std::string &path)
{
    CheckpointInfo info;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return info;
    uint32_t header[headerWords];
    if (std::fread(header, sizeof(header), 1, f) == 1 &&
        header[0] == magicWord && header[1] == formatVersion) {
        info.valid = true;
        info.version = header[1];
        info.decoupled = header[2] != 0;
        info.numGroups = header[3];
        info.hasOccupancy = header[4] != 0;
        info.occResolution = static_cast<int>(header[5]);
    }
    std::fclose(f);
    return info;
}

size_t
fieldStorageBytes(NerfField &field)
{
    size_t bytes = 0;
    for (auto gid : field.paramGroups())
        bytes += field.groupParams(gid).size() * sizeof(float);
    return bytes;
}

} // namespace instant3d
