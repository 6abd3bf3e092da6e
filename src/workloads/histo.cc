/**
 * @file
 * histo: Parboil-style histogramming. Each thread bins one input
 * element with a global atomic; a saturation check adds a mildly
 * divergent data-dependent branch (Parboil's histo saturates bins
 * at 255).
 */

#include "util/rng.h"
#include "workloads/common.h"
#include "workloads/suite.h"

namespace sassi::workloads {

using namespace sass;
using ir::KernelBuilder;
using ir::Label;

namespace {

class Histo : public Workload
{
  public:
    Histo(uint32_t n, uint32_t bins) : n_(n), bins_(bins)
    {
        // The saturation test is a check-then-increment race across
        // CTAs: a warp loads a bin, then adds to it, and other CTAs'
        // adds can land in between. How far a bin overshoots the
        // cap (and with it the final histogram) depends on how CTAs
        // interleave, so runs are only reproducible serially.
        launchOptions.numThreads = 1;
    }

    std::string name() const override { return "histo"; }
    std::string suite() const override { return "Parboil"; }

    void
    setup(simt::Device &dev) override
    {
        KernelBuilder kb("histo");
        // Params: data(0), hist(8), n(16), mask(20).
        Label oob = kb.newLabel();
        gen::gid1D(kb, 4, 2, 3);
        kb.ldc(5, 16);
        kb.isetp(0, CmpOp::GE, 4, 5);
        kb.onP(0).bra(oob);
        gen::ptrPlusIdx(kb, 12, 0, 4, 2, 3);
        kb.ldg(6, 12);
        kb.ldc(7, 20);
        kb.lop(LogicOp::And, 6, 6, 7); // bin
        gen::ptrPlusIdx(kb, 12, 8, 6, 2, 3);
        // Saturate at 255: only increment when below the cap.
        kb.ldg(8, 12);
        Label skip = kb.newLabel();
        Label reconv = kb.newLabel();
        kb.ssy(reconv);
        kb.isetpi(1, CmpOp::GE, 8, 255);
        kb.onP(1).bra(skip);
        kb.mov32i(9, 1);
        kb.red(AtomOp::Add, 12, 9);
        kb.sync();
        kb.bind(skip);
        kb.sync();
        kb.bind(reconv);
        kb.bind(oob);
        kb.exit();

        ir::Module mod;
        mod.kernels.push_back(kb.finish());
        dev.loadModule(std::move(mod));

        Rng rng(0x415f);
        data_.resize(n_);
        for (auto &v : data_) {
            // Skewed distribution: low bins hit hard (saturation).
            uint64_t r = rng.nextBelow(100);
            v = r < 60 ? static_cast<uint32_t>(rng.nextBelow(4))
                       : static_cast<uint32_t>(rng.nextBelow(bins_));
        }
        ddata_ = upload(dev, data_);
        dhist_ = dev.malloc(bins_ * 4);
    }

    simt::LaunchResult
    run(simt::Device &dev) override
    {
        dev.memset(dhist_, 0, bins_ * 4);
        simt::KernelArgs args;
        args.addU64(ddata_);
        args.addU64(dhist_);
        args.addU32(n_);
        args.addU32(bins_ - 1);
        return dev.launch("histo", simt::Dim3((n_ + 127) / 128),
                          simt::Dim3(128), args, launchOptions);
    }

    bool
    verify(simt::Device &dev) override
    {
        // The check-then-increment saturation is racy by design (as
        // in Parboil's histo): every warp reads the bin once, so a
        // bin crossing the cap can overshoot by a few warps' worth.
        // Non-saturating bins must match exactly; saturating bins
        // must land in [cap, cap + slack].
        auto hist = download<uint32_t>(dev, dhist_, bins_);
        std::vector<uint32_t> raw(bins_, 0);
        for (uint32_t v : data_)
            ++raw[v & (bins_ - 1)];
        for (uint32_t b = 0; b < bins_; ++b) {
            if (raw[b] < 255) {
                if (hist[b] != raw[b])
                    return false;
            } else if (hist[b] < 255 ||
                       hist[b] > std::min(raw[b], 255u + 96u)) {
                return false;
            }
        }
        return true;
    }

    uint64_t
    outputHash(simt::Device &dev) override
    {
        return hashDeviceBuffer(dev, dhist_, bins_ * 4);
    }

  private:
    uint32_t n_, bins_;
    std::vector<uint32_t> data_;
    uint64_t ddata_ = 0, dhist_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeHisto(uint32_t n, uint32_t bins)
{
    return std::make_unique<Histo>(n, bins);
}

} // namespace sassi::workloads
