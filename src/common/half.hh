/**
 * @file
 * Software IEEE-754 binary16 ("half") arithmetic.
 *
 * The Instant-3D accelerator uses a 16-bit half-precision floating-point
 * datapath for all algorithm-related computation (Sec 5.1). To model the
 * numerical behaviour of that datapath faithfully on hardware without
 * native fp16, every value is stored as the 16-bit pattern and each
 * arithmetic operation rounds through binary16 (round-to-nearest-even via
 * the float32 conversion).
 */

#ifndef INSTANT3D_COMMON_HALF_HH
#define INSTANT3D_COMMON_HALF_HH

#include <cstdint>
#include <cstring>

namespace instant3d {

/** Convert a float32 to the nearest binary16 bit pattern. */
uint16_t floatToHalfBits(float f);

/** Convert a binary16 bit pattern to float32 (exact). */
float halfBitsToFloat(uint16_t h);

/**
 * A binary16 value. All operators convert to float32, compute, and round
 * the result back through binary16, which matches an fp16 FPU with a
 * single rounding per operation.
 */
class Half
{
  public:
    Half() : bits(0) {}
    Half(float f) : bits(floatToHalfBits(f)) {}

    float toFloat() const { return halfBitsToFloat(bits); }
    operator float() const { return toFloat(); }

    Half operator+(Half o) const { return Half(toFloat() + o.toFloat()); }
    Half operator-(Half o) const { return Half(toFloat() - o.toFloat()); }
    Half operator*(Half o) const { return Half(toFloat() * o.toFloat()); }
    Half operator/(Half o) const { return Half(toFloat() / o.toFloat()); }

    Half &
    operator+=(Half o)
    {
        *this = *this + o;
        return *this;
    }

    bool operator==(Half o) const
    { return toFloat() == o.toFloat(); }

  private:
    uint16_t bits;
};

inline uint16_t
floatToHalfBits(float f)
{
    uint32_t x;
    std::memcpy(&x, &f, sizeof(x));

    uint32_t sign = (x >> 16) & 0x8000u;
    uint32_t mant = x & 0x007fffffu;
    int32_t exp = static_cast<int32_t>((x >> 23) & 0xffu) - 127 + 15;

    if (exp >= 31) {
        // Overflow to infinity; preserve NaN payload bit.
        if (((x >> 23) & 0xffu) == 0xffu && mant)
            return static_cast<uint16_t>(sign | 0x7e00u);
        return static_cast<uint16_t>(sign | 0x7c00u);
    }
    if (exp <= 0) {
        // Subnormal or zero after the shift.
        if (exp < -10)
            return static_cast<uint16_t>(sign);
        mant |= 0x00800000u;
        uint32_t shift = static_cast<uint32_t>(14 - exp);
        uint32_t half_mant = mant >> shift;
        // Round to nearest even.
        uint32_t rem = mant & ((1u << shift) - 1u);
        uint32_t halfway = 1u << (shift - 1);
        if (rem > halfway || (rem == halfway && (half_mant & 1u)))
            half_mant++;
        return static_cast<uint16_t>(sign | half_mant);
    }

    uint16_t h = static_cast<uint16_t>(
        sign | (static_cast<uint32_t>(exp) << 10) | (mant >> 13));
    // Round to nearest even on the dropped 13 bits.
    uint32_t rem = mant & 0x1fffu;
    if (rem > 0x1000u || (rem == 0x1000u && (h & 1u)))
        h++;
    return h;
}

inline float
halfBitsToFloat(uint16_t h)
{
    uint32_t sign = static_cast<uint32_t>(h & 0x8000u) << 16;
    uint32_t exp = (h >> 10) & 0x1fu;
    uint32_t mant = h & 0x3ffu;
    uint32_t x;

    if (exp == 0) {
        if (mant == 0) {
            x = sign;
        } else {
            // Normalize the subnormal.
            int e = -1;
            do {
                e++;
                mant <<= 1;
            } while ((mant & 0x400u) == 0);
            mant &= 0x3ffu;
            x = sign | ((127 - 15 - e) << 23) | (mant << 13);
        }
    } else if (exp == 31) {
        x = sign | 0x7f800000u | (mant << 13);
    } else {
        x = sign | ((exp - 15 + 127) << 23) | (mant << 13);
    }

    float f;
    std::memcpy(&f, &x, sizeof(f));
    return f;
}

} // namespace instant3d

#endif // INSTANT3D_COMMON_HALF_HH
