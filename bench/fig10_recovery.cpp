// Fig. 10: longitudinal echo power spectra of two participants followed from
// admission (purulent effusion) to recovery (clear), visits V1..V6.
#include "bench_util.hpp"

#include <map>

using namespace earsonar;

int main() {
  bench::print_header("Fig. 10 — echo spectrum from admission to recovery",
                      "per-visit spectra converge to the healthy pattern");

  core::EarSonar pipeline;

  for (std::uint32_t subject_id : {0u, 1u}) {
    sim::LongitudinalConfig cfg;
    cfg.subject_id = subject_id;
    cfg.days = 18;
    cfg.probe.chirp_count = 30;
    const auto series = sim::generate_longitudinal(cfg);

    // Six visits evenly spaced through the series (V1..V6 as in the figure).
    AsciiTable visits({"visit", "day", "state (ground truth)", "band level",
                       "level vs final"});
    std::vector<double> levels;
    std::vector<std::size_t> picks;
    for (int v = 0; v < 6; ++v)
      picks.push_back(static_cast<std::size_t>(v) * (series.size() - 1) / 5);
    const auto analysis_at = [&](std::size_t idx) {
      return pipeline.analyze(series[idx].waveform);
    };
    const double final_level = mean(analysis_at(picks.back()).mean_spectrum.psd);
    for (int v = 0; v < 6; ++v) {
      const auto& rec = series[picks[static_cast<std::size_t>(v)]];
      const auto analysis = pipeline.analyze(rec.waveform);
      const double level = mean(analysis.mean_spectrum.psd);
      // Appended, not "V" + std::to_string(...): GCC 12 flags that operator+
      // with a false-positive -Wrestrict.
      std::string visit = "V";
      visit += std::to_string(v + 1);
      visits.add_row({visit,
                      std::to_string(rec.session / 2),
                      sim::to_string(rec.state),
                      AsciiTable::format(level, 4),
                      AsciiTable::format(level / final_level, 3)});
    }
    std::printf("participant %u:\n", subject_id + 1);
    bench::print_table(visits);
    std::printf("\n");
  }
  std::printf("expected shape: band level rises monotonically-ish toward the "
              "healthy (clear) level as the effusion drains, as in Fig. 10.\n");
  return 0;
}
