#include "util/cli.h"

#include <cstdio>

#include "util/status.h"
#include "util/string_utils.h"

namespace confsim {

CliParser::CliParser(std::string program_description)
    : description_(std::move(program_description))
{}

void
CliParser::addOption(const std::string &name, const std::string &def,
                     const std::string &help)
{
    options_[name] = Option{def, help, false};
}

void
CliParser::addFlag(const std::string &name, const std::string &help)
{
    options_[name] = Option{"", help, true};
}

bool
CliParser::parse(int argc, const char *const *argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::fputs(usageText(argv[0]).c_str(), stdout);
            return false;
        }
        if (!startsWith(arg, "--")) {
            positional_.push_back(arg);
            continue;
        }
        std::string name = arg.substr(2);
        std::string value;
        bool has_value = false;
        const auto eq = name.find('=');
        if (eq != std::string::npos) {
            value = name.substr(eq + 1);
            name = name.substr(0, eq);
            has_value = true;
        }
        auto it = options_.find(name);
        if (it == options_.end())
            fatal("unknown option --" + name + " (see --help)");
        if (it->second.isFlag) {
            if (has_value)
                fatal("flag --" + name + " does not take a value");
            it->second.value.assign(1, '1');
        } else {
            if (!has_value) {
                if (i + 1 >= argc)
                    fatal("option --" + name + " requires a value");
                value = argv[++i];
            }
            it->second.value = value;
        }
    }
    return true;
}

std::string
CliParser::getString(const std::string &name) const
{
    return lookup(name).value;
}

std::uint64_t
CliParser::getUnsigned(const std::string &name) const
{
    return parseUnsigned(lookup(name).value);
}

double
CliParser::getDouble(const std::string &name) const
{
    return parseDouble(lookup(name).value);
}

bool
CliParser::getFlag(const std::string &name) const
{
    const Option &opt = lookup(name);
    if (!opt.isFlag)
        fatal("option --" + name + " is not a flag");
    return !opt.value.empty();
}

std::string
CliParser::usageText(const std::string &argv0) const
{
    std::string out = description_ + "\n\nUsage: " + argv0 +
                      " [options]\n\nOptions:\n";
    for (const auto &[name, opt] : options_) {
        out += "  --" + padRight(name, 20);
        out += opt.help;
        if (!opt.isFlag && !opt.value.empty())
            out += " (default: " + opt.value + ")";
        out += "\n";
    }
    out += "  --" + padRight("help", 20) + "show this message\n";
    return out;
}

const CliParser::Option &
CliParser::lookup(const std::string &name) const
{
    auto it = options_.find(name);
    if (it == options_.end())
        fatal("internal: option --" + name + " was never registered");
    return it->second;
}

} // namespace confsim
