#include "predictors/predictor.hh"

#include <algorithm>
#include <fstream>
#include <istream>
#include <ostream>

#include "support/logging.hh"
#include "support/serialize.hh"

namespace bpred
{

namespace
{

constexpr char snapshotMagic[4] = {'B', 'P', 'S', '1'};
constexpr u8 snapshotVersion = 1;

} // namespace

void
Predictor::saveState(std::ostream &) const
{
    fatal("predictor '" + name() + "': snapshot not supported");
}

void
Predictor::loadState(std::istream &)
{
    fatal("predictor '" + name() + "': snapshot not supported");
}

void
savePredictorState(const Predictor &predictor, std::ostream &os)
{
    os.write(snapshotMagic, sizeof(snapshotMagic));
    putU8(os, snapshotVersion);
    putString(os, predictor.name());
    predictor.saveState(os);
    if (!os) {
        fatal("predictor snapshot: write failure");
    }
}

void
loadPredictorState(Predictor &predictor, std::istream &is)
{
    char magic[4] = {};
    is.read(magic, sizeof(magic));
    if (!is || !std::equal(magic, magic + 4, snapshotMagic)) {
        fatal("predictor snapshot: bad magic (not a BPS1 snapshot)");
    }
    const u8 version = getU8(is);
    if (version != snapshotVersion) {
        fatal("predictor snapshot: unsupported version " +
              std::to_string(version));
    }
    const std::string stored_name = getString(is);
    if (stored_name != predictor.name()) {
        fatal("predictor snapshot: configuration mismatch (snapshot "
              "of '" + stored_name + "', predictor is '" +
              predictor.name() + "')");
    }
    predictor.loadState(is);
}

void
savePredictorState(const Predictor &predictor, const std::string &path)
{
    std::ofstream os(path, std::ios::binary);
    if (!os) {
        fatal("predictor snapshot: cannot open '" + path +
              "' for writing");
    }
    savePredictorState(predictor, os);
    if (!os) {
        fatal("predictor snapshot: error while writing '" + path +
              "'");
    }
}

void
loadPredictorState(Predictor &predictor, const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        fatal("predictor snapshot: cannot open '" + path +
              "' for reading");
    }
    loadPredictorState(predictor, is);
}

} // namespace bpred
