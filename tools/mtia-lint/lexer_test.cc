// Unit tests for mtia-lint. The lexer: comments and string literals
// produce no code tokens, raw strings swallow their payload
// wholesale, line continuations splice into one logical line, and
// suppression comments surface with their justification bit. The
// rules: every fixture under tests/lint_fixtures/rules/ meets the
// expectation its name carries, linted through the same fileContext()
// the CLI uses.

#include "lexer.h"
#include "rules.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace mtia_lint {
namespace {

std::vector<std::string>
spellings(const LexedFile &lf)
{
    std::vector<std::string> out;
    out.reserve(lf.tokens.size());
    for (const Token &t : lf.tokens)
        out.push_back(t.text);
    return out;
}

TEST(LintLexer, CommentsProduceNoTokens)
{
    const LexedFile lf = lex("int a; // std::cout << rand();\n"
                             "/* std::chrono::system_clock */ int b;\n"
                             "/* multi\n line\n comment */ int c;\n");
    EXPECT_EQ(spellings(lf),
              (std::vector<std::string>{"int", "a", ";", "int", "b",
                                        ";", "int", "c", ";"}));
    EXPECT_EQ(lf.tokens[3].line, 2); // int b after the block comment
    EXPECT_EQ(lf.tokens[6].line, 5); // int c after the multi-line one
}

TEST(LintLexer, StringAndCharLiteralsAreOpaque)
{
    const LexedFile lf =
        lex("f(\"std::cout << rand()\", '\\'', \"a // b\");\n");
    ASSERT_EQ(lf.tokens.size(), 9u); // f ( str , char , str ) ;
    EXPECT_EQ(lf.tokens[2].kind, Tok::String);
    EXPECT_EQ(lf.tokens[4].kind, Tok::CharLit);
    EXPECT_EQ(lf.tokens[6].kind, Tok::String);
    EXPECT_EQ(lf.tokens[6].text, "\"a // b\"");
}

TEST(LintLexer, RawStringsSwallowEverything)
{
    const LexedFile lf = lex("auto s = R\"(printf(\"%d\");\n"
                             "std::cout << rand();)\";\n"
                             "int after;\n");
    ASSERT_GE(lf.tokens.size(), 6u);
    EXPECT_EQ(lf.tokens[0].text, "auto");
    EXPECT_EQ(lf.tokens[3].kind, Tok::String);
    EXPECT_EQ(lf.tokens[3].line, 1);
    // Nothing inside the raw string leaked out as a token.
    for (const Token &t : lf.tokens)
        EXPECT_NE(t.text, "rand");
    EXPECT_EQ(lf.tokens[6].text, "after");
    EXPECT_EQ(lf.tokens[6].line, 3);
}

TEST(LintLexer, DelimitedRawString)
{
    const LexedFile lf = lex("auto s = R\"x(a )\" b)x\";\n int n;");
    ASSERT_GE(lf.tokens.size(), 5u);
    EXPECT_EQ(lf.tokens[3].text, "R\"x(a )\" b)x\"");
    EXPECT_EQ(lf.tokens[4].text, ";");
}

TEST(LintLexer, LineContinuationSplicesDirectives)
{
    const LexedFile lf = lex("#define LONG_MACRO(x) \\\n"
                             "    do_something(x); \\\n"
                             "    more(x)\n"
                             "int y;\n");
    ASSERT_EQ(lf.directives.size(), 1u);
    const Directive &d = lf.directives[0];
    EXPECT_EQ(d.name, "define");
    EXPECT_EQ(d.line, 1);
    // The spliced logical line holds every continuation's tokens.
    bool saw_more = false;
    for (const Token &t : d.args)
        saw_more |= t.text == "more";
    EXPECT_TRUE(saw_more);
    // Code after the macro is ordinary tokens on the right line.
    ASSERT_EQ(lf.tokens.size(), 3u);
    EXPECT_EQ(lf.tokens[0].text, "int");
    EXPECT_EQ(lf.tokens[0].line, 4);
}

TEST(LintLexer, LineContinuationInCode)
{
    const LexedFile lf = lex("int a = b \\\n + c;\n");
    EXPECT_EQ(spellings(lf),
              (std::vector<std::string>{"int", "a", "=", "b", "+", "c",
                                        ";"}));
    EXPECT_EQ(lf.tokens[4].line, 2); // '+' sits on the physical line 2
}

TEST(LintLexer, IncludeDirectivesKeepSpelling)
{
    const LexedFile lf = lex("#include <sys/time.h>\n"
                             "#include \"core/check.h\"\n"
                             "# include <chrono>\n");
    ASSERT_EQ(lf.directives.size(), 3u);
    EXPECT_EQ(lf.directives[0].args[0].text, "<sys/time.h>");
    EXPECT_EQ(lf.directives[1].args[0].text, "\"core/check.h\"");
    EXPECT_EQ(lf.directives[2].args[0].text, "<chrono>");
    EXPECT_EQ(lf.directives[2].line, 3);
}

TEST(LintLexer, HashInCodeIsNotADirective)
{
    const LexedFile lf = lex("int a; int b = a\n#if 0\nint c;\n#endif\n");
    ASSERT_EQ(lf.directives.size(), 2u);
    EXPECT_EQ(lf.directives[0].name, "if");
    EXPECT_EQ(lf.directives[1].name, "endif");
}

TEST(LintLexer, MultiCharPunctuators)
{
    const LexedFile lf = lex("a->b; c::d; e += f; g == h; i <<= j;");
    const auto sp = spellings(lf);
    EXPECT_NE(std::find(sp.begin(), sp.end(), "->"), sp.end());
    EXPECT_NE(std::find(sp.begin(), sp.end(), "::"), sp.end());
    EXPECT_NE(std::find(sp.begin(), sp.end(), "+="), sp.end());
    EXPECT_NE(std::find(sp.begin(), sp.end(), "=="), sp.end());
    EXPECT_NE(std::find(sp.begin(), sp.end(), "<<="), sp.end());
}

TEST(LintLexer, NumbersWithSeparatorsAndExponents)
{
    const LexedFile lf = lex("x = 1'000'000 + 0x1.8p-3 + 1e+9;");
    ASSERT_GE(lf.tokens.size(), 7u);
    EXPECT_EQ(lf.tokens[2].text, "1'000'000");
    EXPECT_EQ(lf.tokens[4].text, "0x1.8p-3");
    EXPECT_EQ(lf.tokens[6].text, "1e+9");
}

TEST(LintLexer, AllowCommentsAreExtracted)
{
    const LexedFile lf =
        lex("a(); // sim-lint: allow(wall-clock) — bench timing\n"
            "b(); // sim-lint: allow(raw-output)\n"
            "c(); // no suppression here\n");
    ASSERT_EQ(lf.allows.size(), 2u);
    EXPECT_TRUE(lf.allows.at(1).rules.count("wall-clock"));
    EXPECT_TRUE(lf.allows.at(1).justified);
    EXPECT_TRUE(lf.allows.at(2).rules.count("raw-output"));
    EXPECT_FALSE(lf.allows.at(2).justified);
}

TEST(LintLexer, LiteralPrefixes)
{
    const LexedFile lf = lex("auto a = u8\"x\"; auto b = L\"y\"; "
                             "auto c = u8R\"(z)\";");
    int strings = 0;
    for (const Token &t : lf.tokens)
        strings += t.kind == Tok::String;
    EXPECT_EQ(strings, 3);
}

namespace fs = std::filesystem;

const std::string kFixtureDir = "tests/lint_fixtures/rules";

// Aggregate fixtures that predate the <rule>_bad / <rule>_ok naming,
// with the rule each must fire ("" accepts any finding).
const std::map<std::string, std::string> kAggregateFixtures = {
    {"bad_example.cc", ""},
    {"bad_header.h", "include-guard"},
    {"scalar_hot_loop.cc", "scalar-hot-loop"},
};

std::vector<std::string>
fixtureNames()
{
    std::vector<std::string> names;
    for (const auto &e :
         fs::directory_iterator(fs::path(MTIA_SOURCE_DIR) / kFixtureDir))
        if (e.is_regular_file())
            names.push_back(e.path().filename().string());
    std::sort(names.begin(), names.end());
    return names;
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) ==
               0;
}

class LintFixture : public ::testing::TestWithParam<std::string>
{};

TEST_P(LintFixture, MeetsTheExpectationInItsName)
{
    const std::string name = GetParam();
    const std::string rel = kFixtureDir + "/" + name;
    std::ifstream in(fs::path(MTIA_SOURCE_DIR) / rel, std::ios::binary);
    ASSERT_TRUE(in) << rel;
    std::ostringstream buf;
    buf << in.rdbuf();
    // Fixtures are linted as the CLI lints them with --treat-as-src.
    const std::vector<Finding> findings =
        runRules(lex(buf.str()), rel, fileContext(rel, true));

    std::set<std::string> fired;
    std::string report;
    for (const Finding &f : findings) {
        fired.insert(f.rule);
        report += "\n  " + f.file + ":" + std::to_string(f.line) + ": [" +
                  f.rule + "] " + f.detail;
    }

    const auto aggregate = kAggregateFixtures.find(name);
    if (aggregate != kAggregateFixtures.end()) {
        EXPECT_FALSE(findings.empty()) << rel << ": expected findings";
        if (!aggregate->second.empty()) {
            EXPECT_TRUE(fired.count(aggregate->second))
                << rel << ": expected [" << aggregate->second << "]"
                << report;
        }
        return;
    }

    const std::string stem = fs::path(name).stem().string();
    const bool bad = endsWith(stem, "_bad");
    ASSERT_TRUE(bad || endsWith(stem, "_ok"))
        << rel << ": fixture name must end in _bad or _ok";
    if (!bad) {
        EXPECT_TRUE(findings.empty())
            << rel << ": negative fixture must be clean" << report;
        return;
    }
    // A variant suffix narrows the scenario, not the rule:
    // include_guard_mismatch_bad.h still expects [include-guard].
    std::string rule = stem.substr(0, stem.size() - 4);
    std::replace(rule.begin(), rule.end(), '_', '-');
    const bool matched =
        std::any_of(fired.begin(), fired.end(), [&](const std::string &r) {
            return rule == r || rule.rfind(r + "-", 0) == 0;
        });
    EXPECT_TRUE(matched) << rel << ": expected a [" << rule
                         << "] finding" << report;
}

INSTANTIATE_TEST_SUITE_P(
    Rules, LintFixture, ::testing::ValuesIn(fixtureNames()),
    [](const ::testing::TestParamInfo<std::string> &fixture) {
        std::string id = fixture.param;
        std::replace(id.begin(), id.end(), '.', '_');
        return id;
    });

} // namespace
} // namespace mtia_lint
