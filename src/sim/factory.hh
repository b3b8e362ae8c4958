/**
 * @file
 * Building predictors from textual specifications.
 *
 * Spec grammar (fields separated by ':'):
 *
 *   <scheme>:<field>[:<field>...]
 *
 * The scheme table — names, fields, defaults, and an example per
 * scheme — lives in listSchemes(); predictorSpecHelp() renders it
 * for humans and schemesToJson() for tools. parseSpec() validates a
 * string against the table and yields a structured PredictorSpec
 * whose toString() is canonical (parse → print → parse is a fixed
 * point), which is what lets sweep configs and result files
 * round-trip specs without drift.
 *
 * Examples: "gshare:14:12", "gskewed:3:12:8:partial", "egskew:12:11".
 */

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "predictors/predictor.hh"
#include "support/json.hh"

namespace bpred
{

/** Kind of one ':'-separated spec field. */
enum class SpecFieldKind : u8
{
    /** Unsigned integer (size, bit count, ...). */
    Number,

    /** Update policy: partial | partial-lazy | total. */
    Policy,

    /** Static direction: taken | nottaken. */
    Direction,
};

/** Descriptor of one field a scheme accepts. */
struct SpecFieldInfo
{
    /** Field name as shown in help ("index_bits", "policy"). */
    std::string name;

    SpecFieldKind kind = SpecFieldKind::Number;

    /** True when the field may be omitted. */
    bool optional = false;

    /** Value assumed when an optional field is omitted. */
    std::string defaultValue;

    /** Accepted range of a Number field (inclusive). */
    unsigned minValue = 0;
    unsigned maxValue = 1'000'000'000;
};

/** Descriptor of one predictor scheme the factory can build. */
struct SchemeInfo
{
    /** Scheme keyword ("gshare", "egskew", ...). */
    std::string name;

    /** One-line description. */
    std::string summary;

    /** Accepted fields, required first. */
    std::vector<SpecFieldInfo> fields;

    /** A representative buildable spec ("gshare:14:12"). */
    std::string example;

    /** Fields that must be present. */
    std::size_t requiredFields() const;

    /** Usage line: "gshare:<index_bits>:<history_bits>[:...]". */
    std::string usage() const;
};

/** Every scheme the factory knows, in help order. */
const std::vector<SchemeInfo> &listSchemes();

/** Descriptor for @p name, or null when unknown. */
const SchemeInfo *findScheme(const std::string &name);

/** The scheme table as JSON (for tooling). */
JsonValue schemesToJson();

/**
 * A parsed, validated predictor specification. Obtained from
 * parseSpec(); field values are normalized (numbers canonicalized,
 * keywords validated), so toString() output is stable under
 * re-parsing.
 */
struct PredictorSpec
{
    /** Scheme keyword. */
    std::string scheme;

    /** Normalized field values, excluding the scheme. */
    std::vector<std::string> fields;

    /** Canonical spec string ("gshare:14:12"). */
    std::string toString() const;

    /**
     * A copy of this spec with additional ':'-separated fields
     * appended, validated and canonicalized against the scheme
     * table exactly as parseSpec() would. Lets holders of a parsed
     * spec derive variants (a serving tenant adding an optional
     * policy or counter-width field) without going back through
     * the string form.
     *
     * @throws FatalError when @p suffix is empty, malformed, or
     *         would exceed the scheme's field count.
     */
    PredictorSpec withSuffix(const std::string &suffix) const;
};

/**
 * Parse and validate @p spec against the scheme table.
 *
 * @throws FatalError on an unknown scheme, wrong field count, or a
 *         malformed field.
 */
PredictorSpec parseSpec(const std::string &spec);

/**
 * Construct a predictor from a parsed spec.
 *
 * @throws FatalError on semantically invalid parameters (e.g. zero
 *         falru entries).
 */
std::unique_ptr<Predictor> makePredictor(const PredictorSpec &spec);

/**
 * Construct a predictor from @p spec (parseSpec() + build).
 *
 * @throws FatalError on an unknown scheme or malformed parameters.
 */
std::unique_ptr<Predictor> makePredictor(const std::string &spec);

/** Usage text listing every accepted spec form (from the table). */
std::string predictorSpecHelp();

} // namespace bpred

