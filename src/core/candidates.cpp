#include "core/candidates.hpp"

#include <algorithm>
#include <cmath>

#include "util/contracts.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace ftio::core {

const char* periodicity_name(Periodicity p) {
  switch (p) {
    case Periodicity::kPeriodic: return "periodic";
    case Periodicity::kPeriodicWithVariation: return "periodic-with-variation";
    case Periodicity::kAperiodic: return "aperiodic";
  }
  return "unknown";
}

namespace {

/// Applies the harmonic exception of Sec. II-B2: "There is an exception
/// when the candidates are multiples of two of each other. In this case,
/// the higher frequencies are ignored."
///
/// The exception treats the candidate set as one harmonic family: let the
/// lowest-frequency candidate be the base; if every other candidate is
/// either an m-th multiple of the base (m bounded by max_harmonic, with a
/// tolerance that scales with m because a half-bin error on the base grows
/// m-fold at its m-th multiple) or the base's direct bin neighbour (the
/// leakage/variation twin the HACC-IO example keeps as a second
/// candidate), all the multiples are suppressed. If any candidate does not
/// fit the family, the set is left untouched and the plain one/two/many
/// rule decides — this is what keeps noisy spectra from pattern-matching
/// random bins as harmonics.
void suppress_harmonics(std::vector<CandidateFrequency>& candidates,
                        double freq_step, double bin_tolerance,
                        HarmonicRule rule, int max_harmonic) {
  if (candidates.size() < 2) return;

  const CandidateFrequency* base = &candidates.front();
  for (const auto& c : candidates) {
    if (c.frequency < base->frequency) base = &c;
  }
  if (base->frequency <= 0.0) return;

  auto harmonic_multiple = [&](double freq) -> double {
    if (rule == HarmonicRule::kPowerOfTwoOnly) {
      for (double multiple = 2.0;
           multiple <= static_cast<double>(max_harmonic); multiple *= 2.0) {
        if (std::abs(freq - multiple * base->frequency) <=
            multiple * bin_tolerance * freq_step) {
          return multiple;
        }
      }
      return 0.0;
    }
    const double m = std::round(freq / base->frequency);
    if (m >= 2.0 && m <= static_cast<double>(max_harmonic) &&
        std::abs(freq - m * base->frequency) <=
            m * bin_tolerance * freq_step) {
      return m;
    }
    return 0.0;
  };

  std::vector<CandidateFrequency*> multiples;
  for (auto& c : candidates) {
    if (&c == base) continue;
    const auto gap = c.bin > base->bin ? c.bin - base->bin : base->bin - c.bin;
    if (gap <= 1) continue;  // neighbouring bin: same line or close variation
    if (harmonic_multiple(c.frequency) > 0.0) {
      multiples.push_back(&c);
    } else {
      return;  // not one family: exception does not apply
    }
  }
  for (auto* c : multiples) c->harmonic_suppressed = true;
}

}  // namespace

DftAnalysis analyze_spectrum(const ftio::signal::Spectrum& spectrum,
                             const CandidateOptions& options) {
  ftio::util::expect(options.tolerance > 0.0 && options.tolerance <= 1.0,
                     "analyze_spectrum: tolerance outside (0, 1]");
  DftAnalysis out;

  // Non-DC powers: k in [1, N/2] (Sec. II-B2 excludes the DC offset).
  const std::size_t bins = spectrum.power.size();
  if (bins <= 1) return out;
  std::vector<double> powers(spectrum.power.begin() + 1, spectrum.power.end());

  const auto z = ftio::util::z_scores(powers);
  out.max_zscore = *std::max_element(z.begin(), z.end());
  out.mean_bin_contribution =
      1.0 / static_cast<double>(spectrum.inspected_bins());

  if (out.max_zscore <= 0.0) return out;  // flat spectrum

  // Optional alternative detector: intersect its flags with the Z-score
  // rule so confidence sums stay well defined.
  std::vector<bool> method_flags(powers.size(), true);
  if (options.method != ftio::outlier::Method::kZScore) {
    ftio::outlier::DetectOptions dopts;
    dopts.dbscan_eps = 0.0;  // derive from spacing
    method_flags = ftio::outlier::detect(powers, options.method, dopts);
  }

  // Candidate rule, Eq. (3).
  std::vector<CandidateFrequency> candidates;
  auto push_candidate = [&](std::size_t i) {
    for (const auto& existing : candidates) {
      if (existing.bin == i + 1) return;
    }
    CandidateFrequency c;
    c.bin = i + 1;
    c.frequency = spectrum.frequencies[i + 1];
    c.power = powers[i];
    c.normed_power = spectrum.normed_power[i + 1];
    c.zscore = z[i];
    candidates.push_back(c);
  };
  const std::size_t min_bin = std::max<std::size_t>(options.min_cycles, 1);
  for (std::size_t i = 0; i < powers.size(); ++i) {
    if (i + 1 < min_bin) continue;  // fewer than min_cycles in the window
    const bool is_outlier = z[i] >= options.zscore_threshold;
    const bool near_max = z[i] / out.max_zscore >= options.tolerance;
    if (is_outlier && near_max && method_flags[i]) push_candidate(i);
  }

  // Fundamental promotion: spectral leakage (a non-integer number of
  // periods in the window) can split the fundamental across two bins and
  // push it just below the z_max tolerance while a bin-aligned harmonic
  // passes. If a candidate sits at ~m times an *outlier* bin
  // (z >= threshold), that lower bin is the plausible fundamental and
  // joins the candidate set before harmonic suppression.
  {
    const std::size_t original = candidates.size();
    for (std::size_t ci = 0; ci < original; ++ci) {
      const auto cand = candidates[ci];  // copy: vector may reallocate
      const int max_m = options.max_harmonic;
      for (int m = 2; m <= max_m; ++m) {
        if (options.harmonic_rule == HarmonicRule::kPowerOfTwoOnly &&
            (m & (m - 1)) != 0) {
          continue;
        }
        const double target_bin =
            static_cast<double>(cand.bin) / static_cast<double>(m);
        const auto base = static_cast<std::size_t>(std::llround(target_bin));
        for (std::size_t b : {base > 1 ? base - 1 : 1, base, base + 1}) {
          if (b < min_bin || b > powers.size() || b >= cand.bin) continue;
          const std::size_t i = b - 1;
          if (z[i] < options.zscore_threshold) continue;
          // The promoted bin must be a *near-miss* of the Eq. (3) rule
          // (leakage halves the split line's power, i.e. roughly one
          // tolerance notch below z_max) — far weaker bins are background,
          // not a split fundamental.
          if (z[i] / out.max_zscore < 0.75 * options.tolerance) continue;
          const double tol = static_cast<double>(m) *
                             options.harmonic_bin_tolerance *
                             spectrum.frequency_step();
          if (std::abs(cand.frequency -
                       static_cast<double>(m) * spectrum.frequencies[b]) <=
              tol) {
            push_candidate(i);
          }
        }
      }
    }
  }

  suppress_harmonics(candidates, spectrum.frequency_step(),
                     options.harmonic_bin_tolerance, options.harmonic_rule,
                     options.max_harmonic);

  // Confidence (Sec. II-C): sums over I1 = {z_i >= 3} and
  // I2 = {z_i / z_max >= tolerance}, with suppressed harmonics ignored.
  std::vector<bool> suppressed_bin(powers.size(), false);
  for (const auto& c : candidates) {
    if (c.harmonic_suppressed) suppressed_bin[c.bin - 1] = true;
  }
  double sum_i1 = 0.0;
  double sum_i2 = 0.0;
  for (std::size_t i = 0; i < powers.size(); ++i) {
    if (suppressed_bin[i]) continue;
    if (z[i] >= options.zscore_threshold) sum_i1 += z[i];
    if (z[i] / out.max_zscore >= options.tolerance) sum_i2 += z[i];
  }
  for (auto& c : candidates) {
    if (c.harmonic_suppressed) continue;
    double conf = 0.0;
    if (sum_i1 > 0.0) conf += 0.5 * c.zscore / sum_i1;
    if (sum_i2 > 0.0) conf += 0.5 * c.zscore / sum_i2;
    c.confidence = conf;
  }

  std::sort(candidates.begin(), candidates.end(),
            [](const CandidateFrequency& a, const CandidateFrequency& b) {
              return a.power > b.power;
            });

  std::size_t active = 0;
  for (const auto& c : candidates) {
    if (!c.harmonic_suppressed) ++active;
  }

  // Decision rule (Sec. II-B2).
  if (active == 1 || active == 2) {
    out.verdict = active == 1 ? Periodicity::kPeriodic
                              : Periodicity::kPeriodicWithVariation;
    for (const auto& c : candidates) {
      if (!c.harmonic_suppressed) {
        double freq = c.frequency;  // highest power first
        if (options.refine_peak && c.bin >= 1 &&
            c.bin + 1 < spectrum.power.size()) {
          // Quadratic interpolation through (p[k-1], p[k], p[k+1]). The
          // vertex lies within half a bin of k only when p[k] is a local
          // maximum; otherwise (e.g. at k = 1 under a dominant DC bin) it
          // can land below 0 Hz, so the bin frequency is kept.
          const double left = spectrum.power[c.bin - 1];
          const double mid = spectrum.power[c.bin];
          const double right = spectrum.power[c.bin + 1];
          const double denom = left - 2.0 * mid + right;
          if (denom < 0.0 && mid >= left && mid >= right) {
            const double delta = 0.5 * (left - right) / denom;
            freq += delta * spectrum.frequency_step();
          }
        }
        // compute_metrics also rejects a non-positive frequency, but
        // sessions with with_metrics off never call it.
        FTIO_CONTRACT(std::isfinite(freq) && freq > 0.0,
                      "analyze_spectrum: dominant frequency must be a "
                      "positive finite number");
        out.dominant_frequency = freq;
        out.confidence = c.confidence;
        break;
      }
    }
  } else {
    out.verdict = Periodicity::kAperiodic;
  }
  out.candidates = std::move(candidates);
  return out;
}

}  // namespace ftio::core
