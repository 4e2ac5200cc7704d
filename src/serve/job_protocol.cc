#include "serve/job_protocol.h"

#include <cmath>
#include <cstdlib>
#include <utility>

#include "obs/json.h"
#include "sim/experiment.h"

namespace confsim {

namespace {

/** Strict recursive-descent JSON reader over one in-memory line. */
class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    JsonValue
    parseDocument()
    {
        skipWhitespace();
        JsonValue value = parseValue(0);
        skipWhitespace();
        if (pos_ != text_.size())
            fail("trailing characters after JSON value");
        return value;
    }

  private:
    static constexpr unsigned kMaxDepth = 64;

    [[noreturn]] void
    fail(const std::string &why) const
    {
        fatal(ErrorCategory::kConfig,
              "bad JSON at offset " + std::to_string(pos_) + ": " +
                  why);
    }

    void
    skipWhitespace()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    char
    peek() const
    {
        return pos_ < text_.size() ? text_[pos_] : '\0';
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool
    consumeLiteral(const char *literal)
    {
        std::size_t n = 0;
        while (literal[n] != '\0')
            ++n;
        if (text_.compare(pos_, n, literal) != 0)
            return false;
        pos_ += n;
        return true;
    }

    JsonValue
    parseValue(unsigned depth)
    {
        if (depth > kMaxDepth)
            fail("nesting too deep");
        skipWhitespace();
        JsonValue value;
        switch (peek()) {
        case '{': return parseObject(depth);
        case '[': return parseArray(depth);
        case '"':
            value.kind = JsonValue::Kind::kString;
            value.text = parseString();
            return value;
        case 't':
            if (!consumeLiteral("true"))
                fail("bad literal");
            value.kind = JsonValue::Kind::kBool;
            value.boolean = true;
            return value;
        case 'f':
            if (!consumeLiteral("false"))
                fail("bad literal");
            value.kind = JsonValue::Kind::kBool;
            value.boolean = false;
            return value;
        case 'n':
            if (!consumeLiteral("null"))
                fail("bad literal");
            value.kind = JsonValue::Kind::kNull;
            return value;
        default: return parseNumber();
        }
    }

    JsonValue
    parseObject(unsigned depth)
    {
        JsonValue value;
        value.kind = JsonValue::Kind::kObject;
        expect('{');
        skipWhitespace();
        if (peek() == '}') {
            ++pos_;
            return value;
        }
        for (;;) {
            skipWhitespace();
            if (peek() != '"')
                fail("expected object key");
            std::string key = parseString();
            skipWhitespace();
            expect(':');
            value.members.emplace_back(std::move(key),
                                       parseValue(depth + 1));
            skipWhitespace();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return value;
        }
    }

    JsonValue
    parseArray(unsigned depth)
    {
        JsonValue value;
        value.kind = JsonValue::Kind::kArray;
        expect('[');
        skipWhitespace();
        if (peek() == ']') {
            ++pos_;
            return value;
        }
        for (;;) {
            value.items.push_back(parseValue(depth + 1));
            skipWhitespace();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return value;
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        for (;;) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (static_cast<unsigned char>(c) < 0x20)
                fail("unescaped control character in string");
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            const char esc = text_[pos_++];
            switch (esc) {
            case '"': out.push_back('"'); break;
            case '\\': out.push_back('\\'); break;
            case '/': out.push_back('/'); break;
            case 'b': out.push_back('\b'); break;
            case 'f': out.push_back('\f'); break;
            case 'n': out.push_back('\n'); break;
            case 'r': out.push_back('\r'); break;
            case 't': out.push_back('\t'); break;
            case 'u': appendUnicodeEscape(out); break;
            default: fail("bad escape character");
            }
        }
    }

    unsigned
    parseHex4()
    {
        if (pos_ + 4 > text_.size())
            fail("truncated \\u escape");
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = text_[pos_++];
            code <<= 4;
            if (c >= '0' && c <= '9')
                code |= static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f')
                code |= static_cast<unsigned>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                code |= static_cast<unsigned>(c - 'A' + 10);
            else
                fail("bad \\u escape digit");
        }
        return code;
    }

    void
    appendUnicodeEscape(std::string &out)
    {
        unsigned code = parseHex4();
        if (code >= 0xD800 && code <= 0xDBFF) {
            // High surrogate: require the paired low surrogate.
            if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u')
                fail("unpaired surrogate");
            pos_ += 2;
            const unsigned low = parseHex4();
            if (low < 0xDC00 || low > 0xDFFF)
                fail("bad low surrogate");
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        } else if (code >= 0xDC00 && code <= 0xDFFF) {
            fail("unpaired surrogate");
        }
        // UTF-8 encode.
        if (code < 0x80) {
            out.push_back(static_cast<char>(code));
        } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else if (code < 0x10000) {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(
                static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else {
            out.push_back(static_cast<char>(0xF0 | (code >> 18)));
            out.push_back(
                static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
            out.push_back(
                static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        }
    }

    JsonValue
    parseNumber()
    {
        const std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        if (peek() < '0' || peek() > '9')
            fail("expected a value");
        if (peek() == '0') {
            ++pos_; // RFC 8259: no leading zeros ("01" is invalid)
        } else {
            while (peek() >= '0' && peek() <= '9')
                ++pos_;
        }
        if (peek() == '.') {
            ++pos_;
            if (peek() < '0' || peek() > '9')
                fail("bad fraction");
            while (peek() >= '0' && peek() <= '9')
                ++pos_;
        }
        if (peek() == 'e' || peek() == 'E') {
            ++pos_;
            if (peek() == '+' || peek() == '-')
                ++pos_;
            if (peek() < '0' || peek() > '9')
                fail("bad exponent");
            while (peek() >= '0' && peek() <= '9')
                ++pos_;
        }
        const std::string token = text_.substr(start, pos_ - start);
        JsonValue value;
        value.kind = JsonValue::Kind::kNumber;
        value.number = std::strtod(token.c_str(), nullptr);
        return value;
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

std::uint64_t
optionalUnsigned(const JsonValue &object, const std::string &key,
                 std::uint64_t fallback)
{
    const JsonValue *value = object.find(key);
    return value != nullptr ? value->asUnsigned(key) : fallback;
}

bool
optionalBool(const JsonValue &object, const std::string &key,
             bool fallback)
{
    const JsonValue *value = object.find(key);
    return value != nullptr ? value->asBool(key) : fallback;
}

std::string
optionalString(const JsonValue &object, const std::string &key,
               const std::string &fallback)
{
    const JsonValue *value = object.find(key);
    return value != nullptr ? value->asString(key) : fallback;
}

} // namespace

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind != Kind::kObject)
        return nullptr;
    for (const auto &[name, value] : members) {
        if (name == key)
            return &value;
    }
    return nullptr;
}

std::string
JsonValue::asString(const std::string &what) const
{
    if (kind != Kind::kString)
        fatal(ErrorCategory::kConfig,
              "field '" + what + "' must be a string");
    return text;
}

double
JsonValue::asNumber(const std::string &what) const
{
    if (kind != Kind::kNumber)
        fatal(ErrorCategory::kConfig,
              "field '" + what + "' must be a number");
    return number;
}

std::uint64_t
JsonValue::asUnsigned(const std::string &what) const
{
    const double value = asNumber(what);
    if (value < 0.0 || value != std::floor(value))
        fatal(ErrorCategory::kConfig,
              "field '" + what + "' must be a non-negative integer");
    return static_cast<std::uint64_t>(value);
}

bool
JsonValue::asBool(const std::string &what) const
{
    if (kind != Kind::kBool)
        fatal(ErrorCategory::kConfig,
              "field '" + what + "' must be a boolean");
    return boolean;
}

JsonValue
parseJson(const std::string &text)
{
    return JsonParser(text).parseDocument();
}

std::vector<std::string>
knownConfigNames()
{
    return {"ones",      "ideal",         "resetting",
            "saturating", "two-level",     "tage-provider",
            "perceptron-margin"};
}

SweepConfiguration
makeNamedConfiguration(const std::string &name,
                       const std::string &predictor)
{
    // Native-confidence configs default to their matching predictor,
    // whose own lookup the estimator reads (another family fails the
    // job with kConfig); everything else defaults to the paper's
    // large gshare.
    std::string predictor_name = predictor;
    if (predictor_name.empty()) {
        if (name == "tage-provider")
            predictor_name = "tage";
        else if (name == "perceptron-margin")
            predictor_name = "perceptron";
        else
            predictor_name = "gshare-large";
    }
    PredictorFactory makePredictor =
        makeNamedPredictorFactory(predictor_name);

    EstimatorConfig estimator;
    if (name == "ones") {
        estimator = oneLevelOnesCountConfig(IndexScheme::PcXorBhr);
    } else if (name == "ideal") {
        estimator = oneLevelIdealConfig(IndexScheme::PcXorBhr);
    } else if (name == "resetting") {
        estimator = oneLevelCounterConfig(IndexScheme::PcXorBhr,
                                          CounterKind::Resetting);
    } else if (name == "saturating") {
        estimator = oneLevelCounterConfig(IndexScheme::PcXorBhr,
                                          CounterKind::Saturating);
    } else if (name == "two-level") {
        estimator = twoLevelConfig(IndexScheme::PcXorBhr,
                                   SecondLevelIndex::CirXorPc);
    } else if (name == "tage-provider") {
        estimator = tageProviderConfig();
    } else if (name == "perceptron-margin") {
        estimator = perceptronMarginConfig();
    } else {
        std::string known;
        for (const auto &candidate : knownConfigNames())
            known += (known.empty() ? "" : ", ") + candidate;
        fatal(ErrorCategory::kConfig,
              "unknown config '" + name + "' (known: " + known + ")");
    }

    SweepConfiguration config;
    config.label = estimator.label;
    config.makePredictor = std::move(makePredictor);
    auto make = estimator.make;
    config.makeEstimators =
        [make]() {
            std::vector<std::unique_ptr<ConfidenceEstimator>> out;
            out.push_back(make());
            return out;
        };
    return config;
}

ProtocolRequest
parseProtocolRequest(const std::string &line)
{
    const JsonValue root = parseJson(line);
    if (root.kind != JsonValue::Kind::kObject)
        fatal(ErrorCategory::kConfig,
              "request must be a JSON object");
    ProtocolRequest request;
    request.opName = optionalString(root, "op", "");
    if (request.opName.empty())
        fatal(ErrorCategory::kConfig, "request has no \"op\" field");

    if (request.opName == "submit") {
        request.op = ProtocolRequest::Op::kSubmit;
        JobSpec spec;
        spec.tenant = optionalString(root, "tenant", "default");
        spec.label = optionalString(root, "label", "");
        spec.branches =
            optionalUnsigned(root, "branches", spec.branches);
        if (const JsonValue *benchmarks = root.find("benchmarks")) {
            if (benchmarks->kind != JsonValue::Kind::kArray)
                fatal(ErrorCategory::kConfig,
                      "field 'benchmarks' must be an array");
            for (const auto &bench : benchmarks->items)
                spec.benchmarks.push_back(
                    bench.asString("benchmarks[]"));
        }
        const std::string predictor =
            optionalString(root, "predictor", "");
        const JsonValue *configs = root.find("configs");
        if (configs == nullptr ||
            configs->kind != JsonValue::Kind::kArray)
            fatal(ErrorCategory::kConfig,
                  "submit requires a 'configs' array");
        for (const auto &config : configs->items)
            spec.configs.push_back(makeNamedConfiguration(
                config.asString("configs[]"), predictor));
        const std::string errorMode =
            optionalString(root, "error_mode", "fail-fast");
        if (errorMode == "continue")
            spec.policy.errorMode = ErrorMode::kContinueOnError;
        else if (errorMode != "fail-fast")
            fatal(ErrorCategory::kConfig,
                  "field 'error_mode' must be 'fail-fast' or "
                  "'continue'");
        spec.policy.maxAttempts = static_cast<unsigned>(
            optionalUnsigned(root, "max_attempts", 1));
        spec.policy.watchdogMs =
            optionalUnsigned(root, "watchdog_ms", 0);
        spec.policy.deadlineMs =
            optionalUnsigned(root, "deadline_ms", 0);
        spec.policy.retryBackoffMs =
            optionalUnsigned(root, "retry_backoff_ms", 0);
        spec.checkpoint = optionalBool(root, "checkpoint", false);
        spec.checkpointEvery = optionalUnsigned(
            root, "checkpoint_every", spec.checkpointEvery);
        spec.resume = optionalBool(root, "resume", false);
        request.spec = std::move(spec);
        return request;
    }

    if (request.opName == "status" || request.opName == "wait" ||
        request.opName == "cancel") {
        request.op = request.opName == "status"
                         ? ProtocolRequest::Op::kStatus
                     : request.opName == "wait"
                         ? ProtocolRequest::Op::kWait
                         : ProtocolRequest::Op::kCancel;
        if (const JsonValue *id = root.find("id")) {
            request.hasId = true;
            request.id = id->asUnsigned("id");
        } else if (request.op != ProtocolRequest::Op::kStatus) {
            fatal(ErrorCategory::kConfig,
                  "'" + request.opName + "' requires an 'id' field");
        }
        return request;
    }

    if (request.opName == "drain") {
        request.op = ProtocolRequest::Op::kDrain;
        const std::string mode =
            optionalString(root, "mode", "wait");
        if (mode == "wait")
            request.drainMode = DrainMode::kWait;
        else if (mode == "cancel")
            request.drainMode = DrainMode::kCancel;
        else if (mode == "checkpoint")
            request.drainMode = DrainMode::kCheckpoint;
        else
            fatal(ErrorCategory::kConfig,
                  "field 'mode' must be wait, cancel, or "
                  "checkpoint");
        return request;
    }

    if (request.opName == "quit") {
        request.op = ProtocolRequest::Op::kQuit;
        return request;
    }

    fatal(ErrorCategory::kConfig,
          "unknown op '" + request.opName + "'");
}

std::string
protocolError(const std::string &op, const std::string &message,
              ErrorCategory category)
{
    return "{\"ok\":false,\"op\":" + jsonString(op) +
           ",\"error\":" + jsonString(message) +
           ",\"category\":" + jsonString(toString(category)) + "}";
}

std::string
protocolSubmitOk(std::uint64_t id)
{
    return "{\"ok\":true,\"op\":\"submit\",\"id\":" +
           std::to_string(id) + "}";
}

std::string
protocolJobStatus(const std::string &op, const JobStatus &status)
{
    std::string out = "{\"ok\":true,\"op\":" + jsonString(op) +
                      ",\"id\":" + std::to_string(status.id) +
                      ",\"tenant\":" + jsonString(status.tenant) +
                      ",\"label\":" + jsonString(status.label) +
                      ",\"state\":" +
                      jsonString(toString(status.state)) +
                      ",\"checkpointed\":" +
                      (status.checkpointed ? "true" : "false") +
                      ",\"queue_ms\":" + jsonNumber(status.queueMs) +
                      ",\"run_ms\":" + jsonNumber(status.runMs);
    if (!status.error.empty()) {
        out += ",\"error\":" + jsonString(status.error) +
               ",\"category\":" +
               jsonString(toString(status.errorCategory));
    }
    if (status.result != nullptr) {
        out += ",\"results\":[";
        for (std::size_t i = 0; i < status.result->perConfig.size();
             ++i) {
            const SuiteRunResult &config =
                status.result->perConfig[i];
            if (i > 0)
                out += ",";
            out += "{\"label\":" +
                   jsonString(status.result->labels[i]) +
                   ",\"mispredict_rate\":" +
                   jsonNumber(config.compositeMispredictRate) +
                   ",\"degraded\":" +
                   (config.degraded ? "true" : "false") + "}";
        }
        out += "]";
    }
    out += "}";
    return out;
}

std::string
protocolServiceStatus(const ServiceStatus &status)
{
    std::string out =
        "{\"ok\":true,\"op\":\"status\",\"queued\":" +
        std::to_string(status.queued) +
        ",\"running\":" + std::to_string(status.running) +
        ",\"draining\":" + (status.draining ? "true" : "false") +
        ",\"submitted\":" + std::to_string(status.submitted) +
        ",\"admitted\":" + std::to_string(status.admitted) +
        ",\"rejected\":" + std::to_string(status.rejected) +
        ",\"finished\":" + std::to_string(status.finished) +
        ",\"failed\":" + std::to_string(status.failed) +
        ",\"cancelled\":" + std::to_string(status.cancelled) +
        ",\"drained\":" + std::to_string(status.drained) +
        ",\"pool_workers\":" + std::to_string(status.poolWorkers) +
        ",\"pool_busy\":" + std::to_string(status.poolBusy) +
        ",\"tenants\":[";
    for (std::size_t i = 0; i < status.tenants.size(); ++i) {
        const TenantStatus &tenant = status.tenants[i];
        if (i > 0)
            out += ",";
        out += "{\"tenant\":" + jsonString(tenant.tenant) +
               ",\"admitted\":" + std::to_string(tenant.admitted) +
               ",\"rejected\":" + std::to_string(tenant.rejected) +
               ",\"in_flight\":" + std::to_string(tenant.inFlight) +
               ",\"queued\":" + std::to_string(tenant.queued) + "}";
    }
    out += "]}";
    return out;
}

std::string
protocolOk(const std::string &op)
{
    return "{\"ok\":true,\"op\":" + jsonString(op) + "}";
}

} // namespace confsim
