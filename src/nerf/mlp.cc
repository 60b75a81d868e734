#include "nerf/mlp.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "kernels/kernels.hh"

namespace instant3d {

Mlp::Mlp(std::vector<int> layer_dims, OutputActivation out_act,
         uint64_t seed)
    : dims(std::move(layer_dims)), outAct(out_act)
{
    fatalIf(dims.size() < 2, "Mlp needs at least input and output dims");
    for (int d : dims)
        fatalIf(d < 1, "Mlp layer dims must be positive");

    size_t total = 0;
    for (int l = 0; l < numLayers(); l++) {
        wOffsets.push_back(total);
        total += static_cast<size_t>(dims[l]) * dims[l + 1];
        bOffsets.push_back(total);
        total += static_cast<size_t>(dims[l + 1]);
    }
    weights.resize(total);
    gradWeights.assign(total, 0.0f);
    maxDim = *std::max_element(dims.begin(), dims.end());

    for (int l = 0; l < numLayers(); l++) {
        actOffsets.push_back(actPerSample);
        actPerSample += static_cast<size_t>(dims[l]);
        preOffsets.push_back(prePerSample);
        prePerSample += static_cast<size_t>(dims[l + 1]);
    }

    // He-uniform initialization scaled by fan-in.
    Rng rng(seed, 0xb5297a4d3f512d17ULL);
    for (int l = 0; l < numLayers(); l++) {
        float bound = std::sqrt(6.0f / static_cast<float>(dims[l]));
        size_t w0 = wOffsets[l];
        size_t nw = static_cast<size_t>(dims[l]) * dims[l + 1];
        for (size_t i = 0; i < nw; i++)
            weights[w0 + i] = rng.nextFloat(-bound, bound);
        size_t b0 = bOffsets[l];
        for (int i = 0; i < dims[l + 1]; i++)
            weights[b0 + i] = 0.0f;
    }
}

void
Mlp::forward(const float *in, float *out, MlpRecord *rec) const
{
    std::vector<float> cur(in, in + dims[0]);
    std::vector<float> nxt;

    if (rec) {
        rec->activations.clear();
        rec->preacts.clear();
    }

    for (int l = 0; l < numLayers(); l++) {
        if (rec)
            rec->activations.insert(rec->activations.end(), cur.begin(),
                                    cur.end());
        int n_in = dims[l];
        int n_out = dims[l + 1];
        nxt.assign(static_cast<size_t>(n_out), 0.0f);
        const float *w = weights.data() + wOffsets[l];
        const float *b = weights.data() + bOffsets[l];
        for (int o = 0; o < n_out; o++) {
            float acc = b[o];
            const float *wrow = w + static_cast<size_t>(o) * n_in;
            for (int i = 0; i < n_in; i++)
                acc += wrow[i] * cur[i];
            nxt[o] = acc;
        }
        if (rec)
            rec->preacts.insert(rec->preacts.end(), nxt.begin(),
                                nxt.end());

        bool last = (l == numLayers() - 1);
        if (!last) {
            for (auto &v : nxt)
                v = std::max(v, 0.0f);
        } else if (outAct == OutputActivation::Sigmoid) {
            for (auto &v : nxt)
                v = 1.0f / (1.0f + std::exp(-v));
        }
        cur.swap(nxt);
    }
    std::copy(cur.begin(), cur.end(), out);
}

void
Mlp::backward(const MlpRecord &rec, const float *d_out, float *d_in)
{
    // Reconstruct per-layer offsets into the flattened record.
    std::vector<size_t> act_off(numLayers());
    std::vector<size_t> pre_off(numLayers());
    size_t a = 0, p = 0;
    for (int l = 0; l < numLayers(); l++) {
        act_off[l] = a;
        a += static_cast<size_t>(dims[l]);
        pre_off[l] = p;
        p += static_cast<size_t>(dims[l + 1]);
    }
    panicIf(rec.activations.size() != a || rec.preacts.size() != p,
            "MlpRecord does not match this Mlp");

    std::vector<float> delta(d_out, d_out + dims.back());

    // Output activation derivative.
    if (outAct == OutputActivation::Sigmoid) {
        int l = numLayers() - 1;
        for (int o = 0; o < dims.back(); o++) {
            float z = rec.preacts[pre_off[l] + o];
            float s = 1.0f / (1.0f + std::exp(-z));
            delta[o] *= s * (1.0f - s);
        }
    }

    std::vector<float> prev_delta;
    for (int l = numLayers() - 1; l >= 0; l--) {
        int n_in = dims[l];
        int n_out = dims[l + 1];
        const float *act = rec.activations.data() + act_off[l];
        float *gw = gradWeights.data() + wOffsets[l];
        float *gb = gradWeights.data() + bOffsets[l];
        const float *w = weights.data() + wOffsets[l];

        prev_delta.assign(static_cast<size_t>(n_in), 0.0f);
        for (int o = 0; o < n_out; o++) {
            float d = delta[o];
            if (d == 0.0f)
                continue;
            float *gwrow = gw + static_cast<size_t>(o) * n_in;
            const float *wrow = w + static_cast<size_t>(o) * n_in;
            for (int i = 0; i < n_in; i++) {
                gwrow[i] += d * act[i];
                prev_delta[i] += d * wrow[i];
            }
            gb[o] += d;
        }

        if (l > 0) {
            // ReLU derivative on the previous layer's pre-activation.
            const float *pre = rec.preacts.data() + pre_off[l - 1];
            for (int i = 0; i < n_in; i++)
                if (pre[i] <= 0.0f)
                    prev_delta[i] = 0.0f;
        }
        delta.swap(prev_delta);
    }

    if (d_in)
        std::copy(delta.begin(), delta.end(), d_in);
}

void
Mlp::forwardBatch(const float *in, int n, float *out, MlpBatchRecord *rec,
                  Workspace &ws) const
{
    const int n_layers = numLayers();
    float *cur = ws.alloc<float>(static_cast<size_t>(n) * maxDim);
    float *nxt = ws.alloc<float>(static_cast<size_t>(n) * maxDim);
    std::copy(in, in + static_cast<size_t>(n) * dims[0], cur);

    if (rec) {
        rec->n = n;
        rec->activations =
            ws.alloc<float>(static_cast<size_t>(n) * actPerSample);
        rec->preacts =
            ws.alloc<float>(static_cast<size_t>(n) * prePerSample);
    }

    for (int l = 0; l < n_layers; l++) {
        const int n_in = dims[l];
        const int n_out = dims[l + 1];
        const float *w = weights.data() + wOffsets[l];
        const float *b = weights.data() + bOffsets[l];

        if (rec) {
            std::copy(cur, cur + static_cast<size_t>(n) * n_in,
                      rec->activations + actOffsets[l] * n);
        }

        mlpForwardPanel(cur, n, n_in, n_out, w, b, nxt, ws);

        if (rec) {
            std::copy(nxt, nxt + static_cast<size_t>(n) * n_out,
                      rec->preacts + preOffsets[l] * n);
        }

        const bool last = (l == n_layers - 1);
        const size_t count = static_cast<size_t>(n) * n_out;
        if (!last)
            reluPanel(nxt, count);
        else if (outAct == OutputActivation::Sigmoid)
            sigmoidPanel(nxt, count);
        std::swap(cur, nxt);
    }
    std::copy(cur, cur + static_cast<size_t>(n) * dims.back(), out);
}

void
Mlp::backwardSample(const MlpBatchRecord &rec, int s, const float *d_out,
                    float *d_in, float *grad, Workspace &ws) const
{
    panicIf(s < 0 || s >= rec.n, "sample index outside batch record");

    float *delta = ws.alloc<float>(maxDim);
    float *prev_delta = ws.alloc<float>(maxDim);
    std::copy(d_out, d_out + dims.back(), delta);

    // Output activation derivative.
    if (outAct == OutputActivation::Sigmoid) {
        int l = numLayers() - 1;
        const float *pre = rec.preacts + preOffsets[l] * rec.n +
                           static_cast<size_t>(s) * dims.back();
        for (int o = 0; o < dims.back(); o++) {
            float sgm = 1.0f / (1.0f + std::exp(-pre[o]));
            delta[o] *= sgm * (1.0f - sgm);
        }
    }

    for (int l = numLayers() - 1; l >= 0; l--) {
        const int n_in = dims[l];
        const int n_out = dims[l + 1];
        const float *act = rec.activations + actOffsets[l] * rec.n +
                           static_cast<size_t>(s) * n_in;
        float *gw = grad + wOffsets[l];
        float *gb = grad + bOffsets[l];
        const float *w = weights.data() + wOffsets[l];

        mlpBackwardPanel(delta, n_out, n_in, act, w, gw, gb, prev_delta);

        if (l > 0) {
            // ReLU derivative on the previous layer's pre-activation.
            const float *pre = rec.preacts + preOffsets[l - 1] * rec.n +
                               static_cast<size_t>(s) * dims[l];
            for (int i = 0; i < n_in; i++)
                if (pre[i] <= 0.0f)
                    prev_delta[i] = 0.0f;
        }
        std::swap(delta, prev_delta);
    }

    if (d_in)
        std::copy(delta, delta + dims.front(), d_in);
}

void
Mlp::zeroGrad()
{
    std::fill(gradWeights.begin(), gradWeights.end(), 0.0f);
}

uint64_t
Mlp::macsPerForward() const
{
    uint64_t macs = 0;
    for (int l = 0; l < numLayers(); l++)
        macs += static_cast<uint64_t>(dims[l]) * dims[l + 1];
    return macs;
}

} // namespace instant3d
