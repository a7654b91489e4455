// What-if explorer for the §IV-D cost model: how the monetary and energy
// cost of advertisement traffic changes with the data-plan price and the
// device battery, holding the paper's measured traffic volumes fixed.
//
// Usage: cost_report [adMBPerRun] [usdPerGB]
#include <cstdio>

#include <initializer_list>
#include <string_view>

#include "core/cost.hpp"
#include "util/strings.hpp"

using namespace libspector;

namespace {

constexpr const char* kUsage =
    "usage: cost_report [adMBPerRun] [usdPerGB]\n"
    "  adMBPerRun  0..1000000 (default 15.58)\n"
    "  usdPerGB    0..1000000 (default 10)\n";

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && (std::string_view(argv[1]) == "--help" ||
                   std::string_view(argv[1]) == "-h")) {
    std::fputs(kUsage, stdout);
    return 0;
  }
  const auto adMbArg = argc > 1 ? util::parseReal(argv[1], 0.0, 1e6) : 15.58;
  const auto usdPerGbArg =
      argc > 2 ? util::parseReal(argv[2], 0.0, 1e6) : 10.0;
  if (argc > 3 || !adMbArg || !usdPerGbArg) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  const double adMb = *adMbArg;
  const double usdPerGb = *usdPerGbArg;
  const double bytesPerRun = adMb * 1024 * 1024;

  std::printf("Advertisement traffic: %.2f MB per 8-minute session\n", adMb);

  core::DataPlanModel plan;
  plan.usdPerGB = usdPerGb;
  const core::EnergyModel energy;
  const core::CostModel model(plan, energy, 8.0);
  const auto estimate = model.estimate(bytesPerRun);

  std::printf("\n== Money ==\n");
  std::printf("plan price:        $%.2f/GB\n", plan.usdPerGB);
  std::printf("hourly ad cost:    $%.2f\n", estimate.usdPerHour);
  std::printf("per 30 daily min:  $%.2f/month\n", estimate.usdPerHour * 0.5 * 30);

  std::printf("\n== Energy (Vallina et al. ad-library model) ==\n");
  std::printf("battery:           %.2f Wh (%.0f mAh @ %.2f V)\n", energy.batteryWh,
              energy.batteryMah, energy.batteryVoltage());
  std::printf("ad radio power:    %.3f W above idle\n", energy.adActivePowerWatts());
  std::printf("ad throughput:     %.0f B/s while active\n",
              energy.adThroughputBytesPerSec());
  std::printf("energy per byte:   %.2e J/B\n", energy.joulesPerByte());
  std::printf("session energy:    %.0f J (%.2f Wh)\n", estimate.energyJoules,
              estimate.energyJoules / 3600.0);
  std::printf("battery impact:    %.1f%% of a full charge\n",
              100.0 * estimate.batteryFraction);

  std::printf("\n== Sensitivity: $/hour across plan prices ==\n");
  for (const double price : {3.0, 5.0, 10.0, 15.0, 20.0}) {
    core::DataPlanModel p;
    p.usdPerGB = price;
    std::printf("  $%5.2f/GB -> $%.2f/hour\n", price,
                p.usdPerHour(bytesPerRun, 8.0));
  }

  std::printf("\n(paper reference: $1.17/hour and 18.7%% battery for 15.58 MB ads per run)\n");
  return 0;
}
