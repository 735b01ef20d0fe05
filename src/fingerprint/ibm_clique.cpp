#include "fingerprint/ibm_clique.hpp"

#include <algorithm>
#include <functional>
#include <map>

namespace weakkeys::fingerprint {

std::vector<PrimeClique> find_degenerate_cliques(
    const std::vector<FactoredModulus>& factored, std::size_t min_primes,
    std::size_t max_primes, double min_density) {
  // Union-find over primes, keyed by hex.
  std::map<std::string, std::string> parent;
  std::function<std::string(const std::string&)> find =
      [&](const std::string& x) -> std::string {
    auto it = parent.find(x);
    if (it == parent.end() || it->second == x) return x;
    const std::string root = find(it->second);
    parent[x] = root;
    return root;
  };
  auto unite = [&](const std::string& a, const std::string& b) {
    const std::string ra = find(a), rb = find(b);
    if (ra != rb) parent[ra] = rb;
  };

  std::map<std::string, bn::BigInt> prime_by_key;
  for (const auto& f : factored) {
    const std::string pk = f.p.to_hex(), qk = f.q.to_hex();
    prime_by_key.emplace(pk, f.p);
    prime_by_key.emplace(qk, f.q);
    parent.emplace(pk, pk);
    parent.emplace(qk, qk);
    unite(pk, qk);
  }

  // Group primes and moduli by component root.
  std::map<std::string, PrimeClique> components;
  for (const auto& [key, prime] : prime_by_key) {
    components[find(key)].primes.push_back(prime);
  }
  for (const auto& f : factored) {
    components[find(f.p.to_hex())].moduli.push_back(f.n);
  }

  std::vector<PrimeClique> out;
  for (auto& [root, clique] : components) {
    // The same clique modulus may be listed many times: count it once.
    std::sort(clique.moduli.begin(), clique.moduli.end());
    clique.moduli.erase(std::unique(clique.moduli.begin(), clique.moduli.end()),
                        clique.moduli.end());
    const std::size_t k = clique.primes.size();
    if (k < min_primes || k > max_primes) continue;
    const double possible = static_cast<double>(k) * (k - 1) / 2.0;
    clique.density = possible > 0 ? clique.moduli.size() / possible : 0.0;
    if (clique.density < min_density) continue;
    std::sort(clique.primes.begin(), clique.primes.end());
    out.push_back(std::move(clique));
  }
  std::sort(out.begin(), out.end(),
            [](const PrimeClique& a, const PrimeClique& b) {
              return a.moduli.size() > b.moduli.size();
            });
  return out;
}

}  // namespace weakkeys::fingerprint
