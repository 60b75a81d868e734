/**
 * @file
 * Per-thread scratch arena for the training/rendering hot path.
 *
 * The batched NeRF kernels (Mlp::forwardBatch, HashEncoding::encodeBatch,
 * NerfField::queryStream, the renderer's stream records) allocate all of
 * their temporary and record storage from a Workspace instead of heap-
 * allocating per call. A Workspace is a bump allocator over a list of
 * blocks: allocations are O(1) pointer arithmetic, reset() recycles the
 * full capacity without freeing, and after the first few rays the arena
 * reaches its high-water mark and never touches the allocator again.
 *
 * Pointers returned by alloc() stay valid until the next reset() (blocks
 * are never reallocated while in use). One Workspace serves one thread;
 * the Trainer keeps one per worker.
 */

#ifndef INSTANT3D_COMMON_WORKSPACE_HH
#define INSTANT3D_COMMON_WORKSPACE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

namespace instant3d {

/**
 * Growable bump allocator with block-stable addresses.
 */
class Workspace
{
  public:
    /**
     * Allocate n default-initialized elements of T, 64-byte aligned.
     * T must be trivially copyable (raw scratch data only). The memory
     * stays valid until the next reset().
     */
    template <typename T>
    T *
    alloc(size_t n)
    {
        static_assert(std::is_trivially_copyable_v<T> &&
                          std::is_trivially_destructible_v<T>,
                      "Workspace only holds trivial scratch data");
        if (n == 0)
            n = 1; // keep a valid, distinct pointer for empty requests
        void *raw = allocBytes(n * sizeof(T));
        T *ptr = static_cast<T *>(raw);
        for (size_t i = 0; i < n; i++)
            ::new (static_cast<void *>(ptr + i)) T;
        return ptr;
    }

    /** Recycle all allocations; capacity is kept for reuse. */
    void
    reset()
    {
        for (auto &b : blocks)
            b.used = 0;
        cur = 0;
    }

    /** Total bytes currently reserved across all blocks. */
    size_t
    capacityBytes() const
    {
        size_t total = 0;
        for (const auto &b : blocks)
            total += b.size;
        return total;
    }

  private:
    static constexpr size_t alignment = 64;
    static constexpr size_t minBlockBytes = 1 << 16; // 64 KiB

    struct Block
    {
        std::unique_ptr<unsigned char[]> data;
        size_t size = 0;
        size_t used = 0;
    };

    void *
    allocBytes(size_t bytes)
    {
        bytes = (bytes + alignment - 1) & ~(alignment - 1);
        while (cur < blocks.size() &&
               blocks[cur].used + bytes > blocks[cur].size) {
            cur++;
        }
        if (cur == blocks.size()) {
            Block b;
            size_t want = blocks.empty() ? minBlockBytes
                                         : blocks.back().size * 2;
            b.size = want > bytes ? want : bytes;
            // Over-allocate so we can hand out aligned pointers.
            b.data = std::make_unique<unsigned char[]>(b.size + alignment);
            blocks.push_back(std::move(b));
        }
        Block &b = blocks[cur];
        auto base = reinterpret_cast<uintptr_t>(b.data.get());
        uintptr_t p = (base + b.used + alignment - 1) & ~(alignment - 1);
        b.used = (p - base) + bytes;
        return reinterpret_cast<void *>(p);
    }

    std::vector<Block> blocks;
    size_t cur = 0;
};

} // namespace instant3d

#endif // INSTANT3D_COMMON_WORKSPACE_HH
