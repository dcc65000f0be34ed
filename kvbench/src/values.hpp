/**
 * @file
 * Value encodings: every value the benchmark writes names its key, so
 * every read checks that the store returned the right key's value.
 */

#ifndef KVBENCH_VALUES_HPP
#define KVBENCH_VALUES_HPP

#include <cstdint>
#include <cstring>
#include <string>

namespace kvbench {

/** SplitMix64 finalizer. */
inline std::uint64_t
mix64(std::uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Wide value of `len` >= 16 bytes: [key:8][nonce:8][fill][tag:8], the
 *  tag binding key, nonce and length, so a torn or misrouted value fails
 *  checkWide. */
inline void
encodeWide(std::uint64_t key, std::uint64_t nonce, std::size_t len,
           std::string *out)
{
    out->assign(len, static_cast<char>(nonce & 0xff));
    const std::uint64_t tag = mix64(key ^ mix64(nonce) ^ len);
    std::memcpy(out->data(), &key, 8);
    std::memcpy(out->data() + 8, &nonce, 8);
    std::memcpy(out->data() + len - 8, &tag, 8);
}

inline bool
checkWide(std::uint64_t key, const std::string &v, std::size_t min_len,
          std::size_t max_len)
{
    if (v.size() < min_len || v.size() > max_len || v.size() < 16)
        return false;
    std::uint64_t k = 0, nonce = 0, tag = 0;
    std::memcpy(&k, v.data(), 8);
    std::memcpy(&nonce, v.data() + 8, 8);
    std::memcpy(&tag, v.data() + v.size() - 8, 8);
    return k == key && tag == mix64(key ^ mix64(nonce) ^ v.size());
}

/** Preloaded wide-value length of `key`: fixed by the seed. */
inline std::size_t
preloadLength(std::uint64_t seed, std::uint64_t key, std::size_t min_len,
              std::size_t max_len)
{
    return min_len +
           mix64(seed ^ (key * 0x9e3779b97f4a7c15ull)) %
               (max_len - min_len + 1);
}

/** One-word value: key in the high half, writer/sequence in the low. */
inline std::uint64_t
encodeWord(std::uint64_t key, std::uint64_t low)
{
    return (key << 32) | (low & 0xffffffffull);
}

inline bool
checkWord(std::uint64_t key, std::uint64_t v)
{
    return (v >> 32) == key;
}

} // namespace kvbench

#endif // KVBENCH_VALUES_HPP
