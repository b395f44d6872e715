#ifndef MTIA_LINT_LEXER_H_
#define MTIA_LINT_LEXER_H_

/**
 * @file
 * A real (if deliberately small) C++ lexer for mtia-lint. Unlike a
 * regex linter, it understands the token structure of the language:
 * line continuations are spliced first, comments and string/char
 * literals (including raw strings) are consumed as whole units, and
 * preprocessor directives are captured as logical lines —
 * so a "std::cout" inside a string literal or a commented-out rand()
 * can never produce a finding, and a macro continued across five
 * physical lines is still one directive.
 *
 * The lexer also extracts the two comment-borne facts the rule engine
 * needs: `// sim-lint: allow(<rule>)` suppressions (with whether a
 * justification follows the closing parenthesis) and nothing else —
 * comments are otherwise discarded.
 */

#include <map>
#include <set>
#include <string>
#include <vector>

namespace mtia_lint {

enum class Tok {
    Ident,   ///< identifier or keyword
    Number,  ///< pp-number (integer/float, any base)
    String,  ///< string literal, prefixes and raw strings included
    CharLit, ///< character literal
    Punct,   ///< operator / punctuator (longest-match)
};

struct Token
{
    Tok kind;
    std::string text; ///< spelling; for String/CharLit the full literal
    int line;         ///< 1-based physical line of the first character
};

/** One preprocessor directive, continuations spliced. */
struct Directive
{
    std::string name; ///< "include", "ifndef", "define", "pragma", ...
    /** Argument tokens (comments stripped). For #include the single
     *  String-like token keeps its <...> or "..." spelling. */
    std::vector<Token> args;
    int line; ///< line of the '#'
};

/** A sim-lint suppression comment. */
struct Allow
{
    std::set<std::string> rules; ///< rules named on this line
    bool justified = false; ///< text follows the closing parenthesis
    int line = 0;
};

struct LexedFile
{
    std::vector<Token> tokens;        ///< non-preprocessor code tokens
    std::vector<Directive> directives;///< in source order
    std::map<int, Allow> allows;      ///< by line of the comment start
    int max_line = 0;
};

/** Tokenize @p text. Never fails: unterminated constructs are closed
 *  at end of file and lexing continues. */
LexedFile lex(const std::string &text);

} // namespace mtia_lint

#endif // MTIA_LINT_LEXER_H_
