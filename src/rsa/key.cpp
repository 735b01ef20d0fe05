#include "rsa/key.hpp"

#include <stdexcept>

namespace weakkeys::rsa {

namespace {

/// e^-1 mod lambda without a Euclid on lambda-sized operands: with
/// k = -lambda^-1 mod e (an inverse modulo the small e), e divides
/// 1 + k * lambda, and d = (1 + k * lambda) / e lies in [0, lambda), so it
/// is the inverse mod_inverse(e, lambda) returns. Throws std::domain_error
/// when gcd(e, lambda) != 1, as mod_inverse does.
bn::BigInt inverse_mod_lambda(const bn::BigInt& e, const bn::BigInt& lambda) {
  if (e.is_one() || e.sign() <= 0) return bn::mod_inverse(e, lambda);
  const bn::BigInt k = e - bn::mod_inverse(lambda % e, e);
  return (bn::BigInt(1) + k * lambda) / e;
}

/// q^-1 mod p by Fermat, q^(p-2), when p is prime; the product check
/// catches a composite p, which falls back to the extended Euclid.
bn::BigInt inverse_mod_prime(const bn::BigInt& q, const bn::BigInt& p) {
  if (p.is_odd() && p > bn::BigInt(3)) {
    const bn::BigInt inv = bn::mod_pow(q, p - bn::BigInt(2), p);
    if ((q * inv) % p == bn::BigInt(1)) return inv;
  }
  return bn::mod_inverse(q, p);
}

}  // namespace

RsaPrivateKey assemble_private_key(const bn::BigInt& p, const bn::BigInt& q,
                                   const bn::BigInt& e) {
  using bn::BigInt;
  const BigInt one(1);
  const BigInt p1 = p - one;
  const BigInt q1 = q - one;
  const BigInt lambda = (p1 * q1) / bn::gcd(p1, q1);

  RsaPrivateKey key;
  key.pub.n = p * q;
  key.pub.e = e;
  key.p = p;
  key.q = q;
  key.d = inverse_mod_lambda(e, lambda);
  key.dp = key.d % p1;
  key.dq = key.d % q1;
  key.qinv = inverse_mod_prime(q, p);
  return key;
}

bool RsaPrivateKey::is_consistent() const {
  using bn::BigInt;
  const BigInt one(1);
  if (pub.n != p * q) return false;
  const BigInt p1 = p - one;
  const BigInt q1 = q - one;
  const BigInt lambda = (p1 * q1) / bn::gcd(p1, q1);
  if ((pub.e * d) % lambda != one) return false;
  if (dp != d % p1 || dq != d % q1) return false;
  if ((q * qinv) % p != one) return false;
  return true;
}

}  // namespace weakkeys::rsa
