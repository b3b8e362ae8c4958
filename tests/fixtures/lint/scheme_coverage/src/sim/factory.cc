// Miniature factory: "good" is fully wired, and "bad" is the
// half-registered scheme the rule exists to catch (no saveState, no
// kernel, absent from the contract sweep).

#include "predictors/bad.hh"
#include "predictors/good.hh"

namespace bpred
{

const std::vector<SchemeInfo> &
listSchemes()
{
    static const std::vector<SchemeInfo> schemes = {
        {"good", "fully wired scheme"},
        {"bad", "half-registered scheme"},
    };
    return schemes;
}

std::unique_ptr<Predictor>
makePredictor(const std::string &scheme)
{
    if (scheme == "good") {
        return std::make_unique<GoodPredictor>();
    }
    if (scheme == "bad") {
        return std::make_unique<BadPredictor>();
    }
    return nullptr;
}

} // namespace bpred
