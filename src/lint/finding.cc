#include "lint/finding.hh"

#include <cstdio>

#include "check/reporter.hh"
#include "core/json.hh"

namespace jetsim::lint {

std::string
Finding::str() const
{
    const RuleInfo &info = ruleInfo(rule);
    std::string out = std::string(check::severityName(severity)) +
                      " [" + info.id + "] " + component;
    if (!location.empty())
        out += " " + location;
    out += ": " + message;
    if (!hint.empty())
        out += " (fix: " + hint + ")";
    return out;
}

void
Report::add(Rule rule, std::string component, std::string location,
            std::string message, std::string hint)
{
    add(rule, ruleInfo(rule).severity, std::move(component),
        std::move(location), std::move(message), std::move(hint));
}

void
Report::add(Rule rule, check::Severity severity, std::string component,
            std::string location, std::string message, std::string hint)
{
    Finding f;
    f.rule = rule;
    f.severity = severity;
    f.component = std::move(component);
    f.location = std::move(location);
    f.message = std::move(message);
    f.hint = std::move(hint);
    findings_.push_back(std::move(f));
}

int
Report::count(check::Severity s) const
{
    int n = 0;
    for (const auto &f : findings_)
        if (f.severity == s)
            ++n;
    return n;
}

std::vector<Finding>
Report::byRule(Rule r) const
{
    std::vector<Finding> out;
    for (const auto &f : findings_)
        if (f.rule == r)
            out.push_back(f);
    return out;
}

std::string
Report::text() const
{
    std::string out;
    for (const auto &f : findings_)
        out += f.str() + "\n";
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "jetlint: %d error(s), %d warning(s), %d info\n",
                  errors(), warnings(),
                  count(check::Severity::Info));
    out += buf;
    return out;
}

std::string
Report::json() const
{
    core::json::Writer w;
    w.beginObject();
    w.field("schema_version", kJsonSchemaVersion);
    w.key("findings").beginArray();
    for (const auto &f : findings_) {
        const RuleInfo &info = ruleInfo(f.rule);
        w.beginObject();
        w.field("rule", info.id);
        w.field("title", info.title);
        w.field("severity", check::severityName(f.severity));
        w.field("component", f.component);
        w.field("location", f.location);
        w.field("message", f.message);
        w.field("hint", f.hint);
        w.endObject();
    }
    w.endArray();
    w.field("errors", errors());
    w.field("warnings", warnings());
    w.field("infos", count(check::Severity::Info));
    w.endObject();
    return w.str();
}

void
Report::toReporter() const
{
    auto &rep = check::Reporter::instance();
    for (const auto &f : findings_)
        rep.report(f.severity, check::Invariant::StaticLint,
                   f.component.c_str(), check::kTimeUnknown, "[%s] %s",
                   ruleInfo(f.rule).id, f.message.c_str());
}

} // namespace jetsim::lint
