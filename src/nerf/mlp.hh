/**
 * @file
 * Small fully-connected network (Instant-NGP Step 3-2).
 *
 * Instant-NGP replaces the vanilla-NeRF 10x256 MLP with tiny MLPs
 * (3 layers, 64 hidden units); this class implements exactly that shape
 * range with ReLU hidden activations, an optional output activation,
 * and explicit forward/backward passes suitable for per-sample training.
 */

#ifndef INSTANT3D_NERF_MLP_HH
#define INSTANT3D_NERF_MLP_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "common/workspace.hh"

namespace instant3d {

/** Output nonlinearity applied after the last layer. */
enum class OutputActivation
{
    None,       //!< Raw linear outputs.
    Sigmoid,    //!< Per-channel sigmoid (RGB head).
};

/**
 * Per-sample forward context retained for backward(): layer inputs and
 * pre-activation values.
 */
struct MlpRecord
{
    std::vector<float> activations; //!< Concatenated layer inputs.
    std::vector<float> preacts;     //!< Concatenated pre-activations.
};

/**
 * Forward context of a batch of N samples, with all buffers allocated
 * from a Workspace arena (valid until the workspace is reset). Layout
 * is layer-major: the block for layer l holds N contiguous per-sample
 * slices of that layer's dimension (SoA across layers, AoS within a
 * layer), so per-sample backward reads are sequential.
 */
struct MlpBatchRecord
{
    float *activations = nullptr; //!< Per layer: [n x dims[l]].
    float *preacts = nullptr;     //!< Per layer: [n x dims[l+1]].
    int n = 0;
};

/**
 * A dense multilayer perceptron with ReLU hidden units.
 */
class Mlp
{
  public:
    /**
     * @param layer_dims  [in, hidden..., out]; at least {in, out}.
     * @param out_act     Output activation.
     * @param seed        Weight-init seed (He-uniform fan-in scaling).
     */
    Mlp(std::vector<int> layer_dims, OutputActivation out_act,
        uint64_t seed);

    int inputDim() const { return dims.front(); }
    int outputDim() const { return dims.back(); }
    int numLayers() const { return static_cast<int>(dims.size()) - 1; }

    /**
     * Forward pass for one sample.
     * @param rec  If non-null, filled for a later backward().
     */
    void forward(const float *in, float *out, MlpRecord *rec = nullptr)
        const;

    /**
     * Backward pass for one sample previously run through forward()
     * with a record. Accumulates into the weight/bias gradients.
     *
     * @param d_out  dL/d(output), after the output activation.
     * @param d_in   If non-null, receives dL/d(input).
     */
    void backward(const MlpRecord &rec, const float *d_out, float *d_in);

    /**
     * Batched forward over n inputs (sample-major, n x inputDim()) into
     * out (n x outputDim()). All scratch comes from ws; no heap
     * allocation. Per-sample arithmetic is identical to forward(), so
     * outputs match the scalar path bit-exactly.
     *
     * @param rec  If non-null, filled with arena-backed buffers for
     *             later backwardSample() calls; stays valid until
     *             ws.reset().
     */
    void forwardBatch(const float *in, int n, float *out,
                      MlpBatchRecord *rec, Workspace &ws) const;

    /**
     * Backward for one sample s of a recorded batch, accumulating into
     * an arbitrary gradient buffer (same shape as params()). Const:
     * per-thread gradient shards make this safe to call concurrently
     * with distinct grad buffers. Bit-identical to backward() for the
     * same sample.
     *
     * @param d_out  dL/d(output) of sample s, after output activation.
     * @param d_in   If non-null, receives dL/d(input) of sample s.
     * @param grad   Gradient accumulator, length params().size().
     */
    void backwardSample(const MlpBatchRecord &rec, int s,
                        const float *d_out, float *d_in, float *grad,
                        Workspace &ws) const;

    std::vector<float> &params() { return weights; }
    const std::vector<float> &params() const { return weights; }
    std::vector<float> &grads() { return gradWeights; }

    void zeroGrad();

    /** Multiply-accumulate count of one forward pass. */
    uint64_t macsPerForward() const;

  private:
    std::vector<int> dims;
    OutputActivation outAct;
    std::vector<float> weights;      //!< All W then b, layer-major.
    std::vector<float> gradWeights;
    std::vector<size_t> wOffsets, bOffsets;
    /** Per-sample offsets of each layer's slice in a batch record. */
    std::vector<size_t> actOffsets, preOffsets;
    size_t actPerSample = 0, prePerSample = 0;
    int maxDim = 0;
};

} // namespace instant3d

#endif // INSTANT3D_NERF_MLP_HH
