/**
 * @file
 * Byte-level serialization primitives for densim checkpoints.
 *
 * The checkpoint format is deliberately dumb: little-endian scalars,
 * doubles as raw IEEE-754 bit patterns (so ±inf, NaN payloads, and
 * signed zeros round-trip exactly — bit-identical resume depends on
 * this), and length-prefixed strings/vectors. Every read is
 * bounds-checked and throws CkptError with the failing offset, so a
 * truncated or hostile file can never walk the reader out of its
 * buffer (DESIGN.md Sec. 16).
 */

#ifndef DENSIM_CKPT_SERIAL_HH
#define DENSIM_CKPT_SERIAL_HH

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>

#include "core/effects.hh"
#include "util/digest.hh"

namespace densim::ckpt {

/**
 * Any structural defect in a checkpoint file: truncation, bad magic,
 * version skew, digest mismatch, CRC failure, oversized section.
 * Loaders catch this and surface `.what()` as a one-line actionable
 * error; the engine being restored is never partially mutated
 * (validation completes before any state is applied).
 */
class CkptError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Append-only little-endian byte sink. */
class Writer
{
  public:
    void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }

    void u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            u8(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    /** One 8-byte append, not eight pushes: most of an image is words. */
    void u64(std::uint64_t v)
    {
        char bytes[8];
        for (int i = 0; i < 8; ++i)
            bytes[i] = static_cast<char>(v >> (8 * i));
        buf_.append(bytes, sizeof bytes);
    }

    /**
     * size_t is always written as 8 bytes for format stability.
     * DENSIM_COLD: checkpoint serialization runs at epoch boundaries
     * outside the hot loop; the marker stops the hot-effects
     * analyzer's name-based resolution from binding a hot root's
     * container `.size()` call to this method.
     */
    DENSIM_COLD void size(std::size_t v)
    {
        u64(static_cast<std::uint64_t>(v));
    }

    void boolean(bool v) { u8(v ? 1 : 0); }

    /** Raw IEEE-754 bits — never a textual round-trip. */
    void f64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }

    void bytes(const void *data, std::size_t n)
    {
        buf_.append(static_cast<const char *>(data), n);
    }

    /** Length-prefixed string. */
    void str(std::string_view s)
    {
        size(s.size());
        buf_.append(s.data(), s.size());
    }

    /** Move the buffer out, leaving the writer empty and reusable. */
    std::string take()
    {
        std::string out = std::move(buf_);
        buf_.clear();
        return out;
    }

  private:
    std::string buf_;
};

/**
 * Bounds-checked little-endian reader over a borrowed buffer. A
 * string length read from the wire is validated against the bytes
 * actually remaining before any allocation (the checkpoint loader
 * does the same for every sequence count), so a hostile length
 * cannot trigger a multi-gigabyte reserve.
 */
class Reader
{
  public:
    explicit Reader(std::string_view data) : data_(data) {}

    std::size_t offset() const { return pos_; }
    std::size_t remaining() const { return data_.size() - pos_; }
    bool atEnd() const { return pos_ == data_.size(); }

    std::uint8_t u8()
    {
        need(1, "u8");
        return static_cast<std::uint8_t>(data_[pos_++]);
    }

    std::uint32_t u32()
    {
        need(4, "u32");
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(
                     static_cast<unsigned char>(data_[pos_ + i]))
                 << (8 * i);
        pos_ += 4;
        return v;
    }

    std::uint64_t u64()
    {
        need(8, "u64");
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(
                     static_cast<unsigned char>(data_[pos_ + i]))
                 << (8 * i);
        pos_ += 8;
        return v;
    }

    /**
     * DENSIM_COLD: checkpoint parsing is never on the hot path; see
     * Writer::size for why the marker is needed at all.
     */
    DENSIM_COLD std::size_t size()
    {
        const std::uint64_t v = u64();
        if (v > static_cast<std::uint64_t>(SIZE_MAX))
            throw CkptError("checkpoint: size value overflows size_t at "
                            "offset " +
                            std::to_string(pos_ - 8));
        return static_cast<std::size_t>(v);
    }

    bool boolean()
    {
        const std::uint8_t v = u8();
        if (v > 1)
            throw CkptError("checkpoint: bad boolean byte " +
                            std::to_string(int(v)) + " at offset " +
                            std::to_string(pos_ - 1));
        return v == 1;
    }

    double f64()
    {
        const std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof v);
        return v;
    }

    std::string str()
    {
        const std::size_t n = counted(1, "string");
        std::string out(data_.substr(pos_, n));
        pos_ += n;
        return out;
    }

    /** Borrow @p n raw bytes (header magic, section payloads). */
    std::string_view raw(std::size_t n)
    {
        need(n, "raw bytes");
        std::string_view out = data_.substr(pos_, n);
        pos_ += n;
        return out;
    }

    /** The whole payload must have been consumed (format drift trap). */
    void expectEnd(const char *what) const
    {
        if (!atEnd())
            throw CkptError(std::string("checkpoint: trailing bytes in ") +
                            what + " section (" +
                            std::to_string(remaining()) + " unread)");
    }

  private:
    void need(std::size_t n, const char *what) const
    {
        if (remaining() < n)
            throw CkptError(std::string("checkpoint: truncated while "
                                        "reading ") +
                            what + " at offset " + std::to_string(pos_) +
                            " (need " + std::to_string(n) + ", have " +
                            std::to_string(remaining()) + ")");
    }

    /** Read an element count and prove the payload actually fits. */
    std::size_t counted(std::size_t elemSize, const char *what)
    {
        const std::size_t n = size();
        if (n > remaining() / elemSize)
            throw CkptError(std::string("checkpoint: oversized ") + what +
                            " length " + std::to_string(n) + " at offset " +
                            std::to_string(pos_ - 8) + " (only " +
                            std::to_string(remaining()) +
                            " bytes remain)");
        return n;
    }

    std::string_view data_;
    std::size_t pos_ = 0;
};

/** Per-section integrity checksum (FNV-1a 64 over the payload). */
inline std::uint64_t
sectionCrc(std::string_view payload)
{
    return fnv1a64(payload);
}

} // namespace densim::ckpt

#endif // DENSIM_CKPT_SERIAL_HH
