#include "obs/json.hh"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace densim::obs::json {

void
appendNumber(std::string &out, double v)
{
    if (!std::isfinite(v)) {
        out += "null";
        return;
    }
    // Shortest form that parses back to the same double; 32 bytes
    // hold the longest ("-2.2250738585072014e-308" is 24).
    char buf[32];
    const std::to_chars_result r =
        std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, r.ptr);
}

void
appendString(std::string &out, std::string_view s)
{
    out += '"';
    for (const char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\r':
            out += "\\r";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

namespace {

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

} // namespace

bool
validate(std::string_view text, std::string *error)
{
    if (error)
        error->clear();
    return Parser(text).parseDocument(error);
}

long
validateLines(std::string_view text, std::string *error)
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
