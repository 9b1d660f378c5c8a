package stats

import (
	"math"
	"math/rand"
)

// Normal samples a Normal(mu, sigma) variate from r. sigma must be >= 0;
// sigma == 0 returns mu exactly, which the fabrication model uses for
// "perfect precision" ablations.
func Normal(r *rand.Rand, mu, sigma float64) float64 {
	if sigma == 0 {
		return mu
	}
	return mu + sigma*r.NormFloat64()
}

// LogNormal samples a lognormal variate whose underlying normal has the
// given mu and sigma (that is, exp(Normal(mu, sigma))).
func LogNormal(r *rand.Rand, mu, sigma float64) float64 {
	return math.Exp(Normal(r, mu, sigma))
}

// LogNormalParams converts a desired arithmetic mean and median of a
// lognormal distribution into the (mu, sigma) parameters of the underlying
// normal. For a lognormal, median = exp(mu) and mean = exp(mu + sigma^2/2),
// so mu = ln(median) and sigma = sqrt(2 ln(mean/median)). mean must be
// >= median (lognormals are right-skewed); equal values yield sigma = 0.
//
// The inter-chip link error model is parameterised this way straight from
// the paper's quoted statistics (mean link infidelity 7.5%, median 5.6%).
func LogNormalParams(mean, median float64) (mu, sigma float64) {
	mu = math.Log(median)
	ratio := mean / median
	if ratio <= 1 {
		return mu, 0
	}
	sigma = math.Sqrt(2 * math.Log(ratio))
	return mu, sigma
}

// Clamp limits x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Perm returns a random permutation of [0, n) as a reusable helper around
// rand.Perm, present so call sites read uniformly with this package.
func Perm(r *rand.Rand, n int) []int {
	return r.Perm(n)
}
