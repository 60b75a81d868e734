/**
 * @file
 * Minimal 3-component float vector used throughout the scene, NeRF, and
 * trace layers. Header-only by design: every operation is a few flops.
 */

#ifndef INSTANT3D_COMMON_VEC3_HH
#define INSTANT3D_COMMON_VEC3_HH

#include <cmath>

namespace instant3d {

/**
 * A 3-vector of floats with the usual component-wise algebra.
 * Used both for spatial positions/directions and for RGB colors.
 */
struct Vec3
{
    float x = 0.0f;
    float y = 0.0f;
    float z = 0.0f;

    Vec3() = default;
    Vec3(float xv, float yv, float zv) : x(xv), y(yv), z(zv) {}

    /** Broadcast constructor: all three components set to s. */
    explicit Vec3(float s) : x(s), y(s), z(s) {}

    Vec3 operator+(const Vec3 &o) const
    { return {x + o.x, y + o.y, z + o.z}; }
    Vec3 operator-(const Vec3 &o) const
    { return {x - o.x, y - o.y, z - o.z}; }
    Vec3 operator*(float s) const { return {x * s, y * s, z * s}; }
    Vec3 operator/(float s) const { return {x / s, y / s, z / s}; }
    Vec3 operator-() const { return {-x, -y, -z}; }

    /** Component-wise (Hadamard) product; used for color modulation. */
    Vec3 operator*(const Vec3 &o) const
    { return {x * o.x, y * o.y, z * o.z}; }

    Vec3 &
    operator+=(const Vec3 &o)
    {
        x += o.x; y += o.y; z += o.z;
        return *this;
    }

    Vec3 &
    operator*=(float s)
    {
        x *= s; y *= s; z *= s;
        return *this;
    }

    float dot(const Vec3 &o) const
    { return x * o.x + y * o.y + z * o.z; }

    Vec3
    cross(const Vec3 &o) const
    {
        return {y * o.z - z * o.y,
                z * o.x - x * o.z,
                x * o.y - y * o.x};
    }

    float norm() const { return std::sqrt(dot(*this)); }

    /** Unit-length copy; returns +x axis for the zero vector. */
    Vec3
    normalized() const
    {
        float n = norm();
        if (n <= 0.0f)
            return {1.0f, 0.0f, 0.0f};
        return *this / n;
    }

    float operator[](int i) const { return i == 0 ? x : (i == 1 ? y : z); }

    float &
    operator[](int i)
    {
        return i == 0 ? x : (i == 1 ? y : z);
    }

    /** Largest of the three components. */
    float maxComponent() const
    { return std::fmax(x, std::fmax(y, z)); }

    /** Smallest of the three components. */
    float minComponent() const
    { return std::fmin(x, std::fmin(y, z)); }
};

inline Vec3
operator*(float s, const Vec3 &v)
{
    return v * s;
}

/** Component-wise clamp of v into [lo, hi]. */
inline Vec3
clamp(const Vec3 &v, float lo, float hi)
{
    auto c = [lo, hi](float a) {
        return a < lo ? lo : (a > hi ? hi : a);
    };
    return {c(v.x), c(v.y), c(v.z)};
}

/** Linear interpolation between a (t=0) and b (t=1). */
inline Vec3
lerp(const Vec3 &a, const Vec3 &b, float t)
{
    return a * (1.0f - t) + b * t;
}

} // namespace instant3d

#endif // INSTANT3D_COMMON_VEC3_HH
