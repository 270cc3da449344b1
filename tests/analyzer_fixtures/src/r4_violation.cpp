// rbs-analyze-fixture-expect: R4 R4 R4 R4 R4
// RNG discipline violations: literal seeds and unseeded construction.
// (`Rng();` below declares the constructor; it constructs nothing.)
#include <cstdint>

struct Rng {
  Rng();
  explicit Rng(std::uint64_t seed);
  Rng fork(std::uint64_t stream) const;
  double uniform();
};

double literal_seed() {
  Rng rng{42};  // R4: bare literal seed
  return rng.uniform();
}

double literal_seed_parens() {
  Rng rng(7);  // R4: bare literal seed
  return rng.uniform();
}

double unseeded() {
  Rng rng;  // R4: default-constructed
  return rng.uniform();
}

double empty_braces() {
  Rng rng{};  // R4: value-initialized, no seed
  return rng.uniform();
}

double seedless_temporary() {
  return Rng().uniform();  // R4: temporary with no seed
}
