/**
 * @file
 * Rule "scheme-coverage": every scheme in the factory table must be
 * fully wired, not just constructible.
 *
 * PR 8 found seven schemes that had sat in listSchemes() for five
 * PRs without snapshot support: the factory happily built them, the
 * serving engine happily cached them, and the first checkpoint
 * round-trip silently produced an empty predictor. "Registered"
 * must mean more than "has a make_unique branch". Per scheme the
 * rule checks, against the project model:
 *
 *  1. the primary class the factory constructs for the scheme (the
 *     first make_unique in its branch) declares saveState AND
 *     loadState itself — inherited defaults do not count, because
 *     the base-class default is exactly the empty-snapshot bug this
 *     rule exists to catch;
 *  2. the class hierarchy provides a block-replay kernel
 *     (replayBlock / block_kernel mention) — in this tree, by
 *     deriving from BlockPredictor;
 *  3. the scheme appears in test_predictor_contract's sweep, so the
 *     contract suite actually exercises it.
 *
 * Findings anchor to the scheme's listSchemes() table line.
 */

#include "bp_lint/lint.hh"
#include "bp_lint/model.hh"

namespace bplint
{

namespace
{

/** True when the contract test mentions "<scheme>:" or "<scheme>". */
bool
contractCovers(const SourceFile &contract, const std::string &scheme)
{
    const std::string spec = "\"" + scheme + ":";
    const std::string bare = "\"" + scheme + "\"";
    for (const std::string &line : contract.lines) {
        if (line.find(spec) != std::string::npos ||
            line.find(bare) != std::string::npos) {
            return true;
        }
    }
    return false;
}

} // namespace

void
ruleSchemeCoverage(const RepoTree &tree,
                   std::vector<Finding> &findings)
{
    const ProjectModel &model = *tree.model;
    if (!model.hasFactory || model.schemes.empty()) {
        return; // factory-fingerprint reports the missing table
    }

    const SourceFile *contract = nullptr;
    for (const SourceFile &file : tree.files) {
        if (file.relative == "tests/test_predictor_contract.cc") {
            contract = &file;
        }
    }

    const SourceFile *factory = nullptr;
    for (const SourceFile &file : tree.files) {
        if (file.relative == model.factoryFile) {
            factory = &file;
        }
    }

    for (const SchemeFact &scheme : model.schemes) {
        if (factory &&
            lineAllows(*factory, scheme.line, "scheme-coverage")) {
            continue;
        }

        if (scheme.classes.empty()) {
            findings.push_back(
                {"scheme-coverage", model.factoryFile, scheme.line,
                 "scheme '" + scheme.name +
                     "' has no makePredictor() branch constructing "
                     "a predictor class"});
            continue;
        }
        const std::string &primary = scheme.classes.front();

        // 1. Snapshot overrides, declared by the primary class
        //    itself.
        for (const char *method : {"saveState", "loadState"}) {
            if (!model.classDeclares(tree, primary, method)) {
                findings.push_back(
                    {"scheme-coverage", model.factoryFile,
                     scheme.line,
                     "scheme '" + scheme.name + "': class " +
                         primary + " does not declare " + method +
                         "() itself (inherited defaults produce "
                         "empty snapshots)"});
            }
        }

        // 2. Block kernel somewhere in the hierarchy.
        if (!model.hierarchyMentions(tree, primary, "replayBlock") &&
            !model.hierarchyMentions(tree, primary, "block_kernel")) {
            findings.push_back(
                {"scheme-coverage", model.factoryFile, scheme.line,
                 "scheme '" + scheme.name + "': hierarchy of " +
                     primary + " provides no replayBlock/block_kernel"});
        }

        // 3. Contract-test sweep coverage.
        if (contract && !contractCovers(*contract, scheme.name)) {
            findings.push_back(
                {"scheme-coverage", model.factoryFile, scheme.line,
                 "scheme '" + scheme.name +
                     "' does not appear in "
                     "test_predictor_contract's sweep"});
        }
    }
}

} // namespace bplint
