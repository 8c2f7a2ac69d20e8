/**
 * @file
 * Span log implementation.
 */

#include "trace.hh"

#include "common/json.hh"
#include "common/logging.hh"

namespace bvfbench
{

int
SpanLog::add(std::string name, std::string scope, Clock::time_point start,
             Clock::time_point end, int parent, double innerS)
{
    spans_.push_back(Span{std::move(name), std::move(scope),
                          secondsBetween(origin_, start),
                          secondsBetween(origin_, end), parent, innerS});
    return static_cast<int>(spans_.size()) - 1;
}

void
SpanLog::setEnd(int id, Clock::time_point end)
{
    spans_.at(static_cast<std::size_t>(id)).endS =
        secondsBetween(origin_, end);
}

std::string
SpanLog::toJsonLines() const
{
    std::string out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out += bvf::strFormat(
            "{\"id\": %zu, \"name\": %s, \"scope\": %s, \"start_s\": %.9f, "
            "\"end_s\": %.9f, \"parent\": %d, \"inner_s\": %.9f}\n",
            i, bvf::jsonQuote(s.name).c_str(),
            bvf::jsonQuote(s.scope).c_str(), s.startS, s.endS, s.parent,
            s.innerS);
    }
    return out;
}

} // namespace bvfbench
