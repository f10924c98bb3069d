"""Where should the charging region end if sensors just need to wake up?

Maximizing the probability that the received power clears a fixed threshold
is not the same problem as maximizing the mean: pushing the radius out raises
the average but also the spread. Depending on the transmit power the optimal
radius sits below the mean-optimal one, above it, or runs away entirely (big
radii stop mattering once nearly every beacon already beams). This script
classifies the landscape for a few powers.
"""

from beamharvest import analytic, radopt
from beamharvest.scenario import ScenarioParams

THRESHOLD = 1e-4  # watts, i.e. 0.1 mW to wake a node

base = ScenarioParams(
    pb_power=1.0,
    pb_density=0.1,
    sn_density=0.2,
    sectors=4,
    charging_radius=1.0,
    path_loss_exp=3.0,
    wavelength=0.1,
    power_threshold=THRESHOLD,
)

print(f"wake-up threshold {THRESHOLD * 1e3:.1f} mW\n")
print("power   best radius   reach    omni reach   landscape")
for power in (0.5, 1.0, 2.0, 3.0, 5.0, 10.0):
    pr = base.with_(pb_power=power)
    opt = radopt.optimal_radius_active(pr, THRESHOLD)
    omni = analytic.gamma_ccdf_omni(THRESHOLD, pr)
    print(
        f"{power:5.1f}   {opt.radius:11.4f}   {opt.objective:.4f}   {omni:10.4f}   {opt.case_label.value}"
    )

print(
    "\nCase1/Case2: interior optimum. In Case1 the reach curve rises straight\n"
    "to its highest peak; in Case2 it passes a dip or a lower peak first.\n"
    "Case3Boundary: the reach curve flattens into the all-beacons-beaming\n"
    "plateau and the printed radius is just where the curve stops moving."
)
