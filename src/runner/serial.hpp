/**
 * @file
 * Binary job-result codec for distributed plan execution.
 *
 * JobCodec<R> turns a plan's result type into bytes and back with an
 * exact round trip: every integer travels fixed-width, every double as
 * its IEEE-754 bit pattern (common/bytes.hpp). Any aggregate that
 * exposes `template <typename V> void visitFields(V&&)` — listing all
 * of its fields by reference in a fixed order — is serializable
 * automatically, as are integral/floating/bool/enum scalars,
 * std::string, and std::vector of any serializable type.
 *
 * The determinism contract this upholds: a result decoded on the
 * master answers every query (aggregates, quantiles, timelines, JSON
 * emission) bit-identically to the worker-side original, so a
 * distributed run's artifact is byte-identical to a local run's.
 */
#pragma once

#include <algorithm>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bytes.hpp"

namespace codecrunch::runner {

namespace serial_detail {

template <typename T, typename V, typename = void>
struct HasVisitFields : std::false_type {
};

template <typename T, typename V>
struct HasVisitFields<
    T, V,
    std::void_t<decltype(std::declval<T&>().visitFields(
        std::declval<V&>()))>> : std::true_type {
};

/** Accepts any field; only used to probe for visitFields. */
struct ProbeVisitor {
    template <typename T>
    void operator()(T&);
};

template <typename T>
struct IsVector : std::false_type {
};

template <typename E>
struct IsVector<std::vector<E>> : std::true_type {
    using Element = E;
};

/** Compile-time reachability of a type by the codec visitors. */
template <typename T>
struct IsSerializable {
    static constexpr bool
    compute()
    {
        using U = std::remove_cv_t<T>;
        if constexpr (std::is_same_v<U, bool> || std::is_enum_v<U> ||
                      std::is_integral_v<U> ||
                      std::is_floating_point_v<U> ||
                      std::is_same_v<U, std::string>) {
            return true;
        } else if constexpr (IsVector<U>::value) {
            return IsSerializable<
                typename IsVector<U>::Element>::compute();
        } else {
            return HasVisitFields<U, ProbeVisitor>::value;
        }
    }

    static constexpr bool value = compute();
};

/** Writes each visited field into a ByteWriter. */
struct EncodeVisitor {
    ByteWriter& w;

    template <typename T>
    void
    operator()(T& value)
    {
        using U = std::remove_cv_t<T>;
        if constexpr (std::is_same_v<U, bool>) {
            w.u8(value ? 1 : 0);
        } else if constexpr (std::is_enum_v<U>) {
            w.u64(static_cast<std::uint64_t>(
                static_cast<std::underlying_type_t<U>>(value)));
        } else if constexpr (std::is_integral_v<U>) {
            // One fixed wire width for every integral type; signed
            // values round-trip through two's complement.
            w.i64(static_cast<std::int64_t>(value));
        } else if constexpr (std::is_floating_point_v<U>) {
            w.f64(static_cast<double>(value));
        } else if constexpr (std::is_same_v<U, std::string>) {
            w.str(value);
        } else {
            visitOther(value);
        }
    }

  private:
    template <typename E>
    void
    visitOther(std::vector<E>& vec)
    {
        w.u64(vec.size());
        for (auto& element : vec)
            (*this)(element);
    }

    template <typename T>
    void
    visitOther(T& aggregate)
    {
        static_assert(HasVisitFields<T, EncodeVisitor>::value,
                      "type is not serializable: add visitFields()");
        aggregate.visitFields(*this);
    }
};

/** Assigns each visited field from a ByteReader. */
struct DecodeVisitor {
    ByteReader& r;

    template <typename T>
    void
    operator()(T& value)
    {
        using U = std::remove_cv_t<T>;
        if constexpr (std::is_same_v<U, bool>) {
            value = r.u8() != 0;
        } else if constexpr (std::is_enum_v<U>) {
            value = static_cast<U>(
                static_cast<std::underlying_type_t<U>>(r.u64()));
        } else if constexpr (std::is_integral_v<U>) {
            value = static_cast<U>(r.i64());
        } else if constexpr (std::is_floating_point_v<U>) {
            value = static_cast<U>(r.f64());
        } else if constexpr (std::is_same_v<U, std::string>) {
            value = r.str();
        } else {
            visitOther(value);
        }
    }

  private:
    template <typename E>
    void
    visitOther(std::vector<E>& vec)
    {
        const std::uint64_t n = r.u64();
        // Guard against garbage length prefixes: each element consumes
        // at least one byte on the wire, so n can never exceed the
        // remaining payload.
        if (n > r.remaining())
            throw DecodeError("vector length exceeds payload");
        vec.clear();
        // A length that passes that check can still ask for sizeof(E)
        // bytes of memory per byte of payload, so reserve no more
        // elements than the remaining bytes hold at sizeof(E) apiece.
        // Elements that encode in at least sizeof(E) bytes, as
        // invocation records and minute bins do, still reserve n.
        vec.reserve(std::min(static_cast<std::size_t>(n),
                             r.remaining() / sizeof(E)));
        for (std::uint64_t i = 0; i < n; ++i) {
            E element = E();
            (*this)(element);
            vec.push_back(std::move(element));
        }
    }

    template <typename T>
    void
    visitOther(T& aggregate)
    {
        static_assert(HasVisitFields<T, DecodeVisitor>::value,
                      "type is not serializable: add visitFields()");
        aggregate.visitFields(*this);
    }
};

} // namespace serial_detail

/**
 * Codec for a plan result type R. Defined for any R reachable by the
 * visitors above (visitFields aggregates, scalars, strings, vectors).
 */
template <typename R>
struct JobCodec {
    static std::string
    encode(const R& result)
    {
        ByteWriter writer;
        serial_detail::EncodeVisitor visitor{writer};
        // visitFields is non-const (decode assigns through the same
        // method); the encode visitor only reads.
        visitor(const_cast<R&>(result));
        return writer.take();
    }

    static R
    decode(std::string_view bytes)
    {
        ByteReader reader(bytes);
        serial_detail::DecodeVisitor visitor{reader};
        // R() not R{}: list-init would trip explicit single-argument
        // constructors of members (e.g. metrics::Collector).
        R result = R();
        visitor(result);
        reader.expectDone("job result payload");
        return result;
    }
};

/**
 * True when JobCodec<R> can serialize R. Plans over non-serializable
 * result types run locally only; the engine reports a fatal error if
 * such a plan is handed to a distributed backend.
 */
template <typename R>
inline constexpr bool kJobCodecAvailable =
    serial_detail::IsSerializable<R>::value;

} // namespace codecrunch::runner
