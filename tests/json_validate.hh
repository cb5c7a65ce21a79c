/**
 * @file
 * Strict RFC 8259 validation for the tests: densim's exporters
 * (obs/json.hh and its users) must emit documents every JSON parser
 * accepts, so "it parses" is asserted in-process too, not only by the
 * Python parses in tools/check.sh's smoke runs. Header-only; the
 * library itself never parses JSON.
 */

#ifndef DENSIM_TESTS_JSON_VALIDATE_HH
#define DENSIM_TESTS_JSON_VALIDATE_HH

#include <cctype>
#include <cstddef>
#include <string>
#include <string_view>

namespace densim::obs::json {

namespace detail {

/** Strict recursive-descent RFC 8259 parser over a string_view. */
class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    bool
    parseDocument(std::string *error)
    {
        error_ = error;
        skipWs();
        if (!parseValue())
            return false;
        skipWs();
        if (pos_ != text_.size())
            return fail("trailing characters after document");
        return true;
    }

  private:
    bool
    fail(const char *what)
    {
        if (error_ && error_->empty()) {
            *error_ = what;
            *error_ += " at byte " + std::to_string(pos_);
        }
        return false;
    }

    bool eof() const { return pos_ >= text_.size(); }
    char peek() const { return text_[pos_]; }

    void
    skipWs()
    {
        while (!eof() && (peek() == ' ' || peek() == '\t' ||
                          peek() == '\n' || peek() == '\r'))
            ++pos_;
    }

    bool
    literal(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            return fail("invalid literal");
        pos_ += word.size();
        return true;
    }

    bool
    parseValue()
    {
        if (++depth_ > kMaxDepth)
            return fail("nesting too deep");
        bool ok = false;
        if (eof()) {
            ok = fail("unexpected end of input");
        } else {
            switch (peek()) {
            case '{':
                ok = parseObject();
                break;
            case '[':
                ok = parseArray();
                break;
            case '"':
                ok = parseString();
                break;
            case 't':
                ok = literal("true");
                break;
            case 'f':
                ok = literal("false");
                break;
            case 'n':
                ok = literal("null");
                break;
            default:
                ok = parseNumber();
            }
        }
        --depth_;
        return ok;
    }

    bool
    parseObject()
    {
        ++pos_; // '{'
        skipWs();
        if (!eof() && peek() == '}') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipWs();
            if (eof() || peek() != '"')
                return fail("expected object key string");
            if (!parseString())
                return false;
            skipWs();
            if (eof() || peek() != ':')
                return fail("expected ':' after object key");
            ++pos_;
            skipWs();
            if (!parseValue())
                return false;
            skipWs();
            if (eof())
                return fail("unterminated object");
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or '}' in object");
        }
    }

    bool
    parseArray()
    {
        ++pos_; // '['
        skipWs();
        if (!eof() && peek() == ']') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipWs();
            if (!parseValue())
                return false;
            skipWs();
            if (eof())
                return fail("unterminated array");
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or ']' in array");
        }
    }

    bool
    parseString()
    {
        ++pos_; // opening quote
        while (!eof()) {
            const char c = text_[pos_];
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("unescaped control character in string");
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (c == '\\') {
                ++pos_;
                if (eof())
                    return fail("unterminated escape");
                const char esc = text_[pos_];
                if (esc == 'u') {
                    for (int i = 1; i <= 4; ++i) {
                        if (pos_ + i >= text_.size() ||
                            !std::isxdigit(static_cast<unsigned char>(
                                text_[pos_ + i])))
                            return fail("invalid \\u escape");
                    }
                    pos_ += 4;
                } else if (esc != '"' && esc != '\\' && esc != '/' &&
                           esc != 'b' && esc != 'f' && esc != 'n' &&
                           esc != 'r' && esc != 't') {
                    return fail("invalid escape character");
                }
            }
            ++pos_;
        }
        return fail("unterminated string");
    }

    bool
    digits()
    {
        if (eof() || !std::isdigit(static_cast<unsigned char>(peek())))
            return fail("expected digit");
        while (!eof() &&
               std::isdigit(static_cast<unsigned char>(peek())))
            ++pos_;
        return true;
    }

    bool
    parseNumber()
    {
        if (peek() == '-')
            ++pos_;
        if (eof())
            return fail("truncated number");
        if (peek() == '0') {
            ++pos_; // no leading zeros
        } else if (!digits()) {
            return false;
        }
        if (!eof() && peek() == '.') {
            ++pos_;
            if (!digits())
                return false;
        }
        if (!eof() && (peek() == 'e' || peek() == 'E')) {
            ++pos_;
            if (!eof() && (peek() == '+' || peek() == '-'))
                ++pos_;
            if (!digits())
                return false;
        }
        return true;
    }

    static constexpr int kMaxDepth = 256;

    std::string_view text_;
    std::size_t pos_ = 0;
    int depth_ = 0;
    std::string *error_ = nullptr;
};

} // namespace detail

/**
 * Strictly parse @p text as exactly one JSON document (RFC 8259: no
 * trailing garbage, no bare NaN/inf, no trailing commas, no
 * single-quoted strings). Returns true iff valid; on failure @p error
 * (if non-null) receives a one-line description with a byte offset.
 */
inline bool
validate(std::string_view text, std::string *error = nullptr)
{
    if (error)
        error->clear();
    return detail::Parser(text).parseDocument(error);
}

/**
 * Validate a JSON-lines stream: every non-empty line must be a valid
 * document. Returns the number of valid lines, or -1 on the first
 * invalid line (with @p error set as in validate()).
 */
inline long
validateLines(std::string_view text, std::string *error = nullptr)
{
    long valid = 0;
    std::size_t start = 0;
    while (start <= text.size()) {
        std::size_t end = text.find('\n', start);
        if (end == std::string_view::npos)
            end = text.size();
        const std::string_view line = text.substr(start, end - start);
        if (!line.empty()) {
            if (!validate(line, error))
                return -1;
            ++valid;
        }
        if (end == text.size())
            break;
        start = end + 1;
    }
    return valid;
}

} // namespace densim::obs::json

#endif // DENSIM_TESTS_JSON_VALIDATE_HH
