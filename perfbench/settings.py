"""Fixed workload settings shared by the benchmark and its reference maker.

Every value here is part of the benchmark's definition: changing one
changes what the stored references and the recorded baselines mean.
"""

# Codebook of the paper: N=108 amplitudes over {1,3,5,7} at 162 bits/block.
N = 108
AMPLITUDES = (1, 3, 5, 7)
ALPHABET = ",".join(map(str, AMPLITUDES))
BITS = 162
BAND = "11,0"
ESS_EMAX = 860
BESS_EMAX = 972

# link_sweep: the criterion-6 link (sps 8, 0.25 km steps, 16384-symbol
# burst) at one power near the SNR peak and one deep in the nonlinear regime.
POWERS = "6:4:10"
POWER_LIST = (6.0, 10.0)
SPS = 8
STEP_KM = 0.25
SPAN_KM = 205.0
ALPHA_DB_KM = 0.2
NF_DB = 5.0
BAUD_GBD = 50.0
STEPS_PER_LINK = 820
BURST_SYMBOLS = 16384  # simulate's default burst
FILTER_SPAN = 64       # simulate's default RRC span in symbols
REF_STEP_KM = 0.05  # fine-step reference schedule
REF_SEEDS = (0, 5)  # default seed and one held-out seed
SNR_TOL_DB = 0.01   # |SNR(0.25 km) - SNR(0.05 km)| allowed per link


def link_fft_len():
    """FFT length of one link: the padded length run_link propagates."""
    from scipy.fft import next_fast_len
    return next_fast_len((BURST_SYMBOLS - 1) * SPS + FILTER_SPAN * SPS + 1)


def simulate_argv(trellis_ess, trellis_bess, seed, out, step_km=STEP_KM):
    return ["simulate", "--trellis-ess", str(trellis_ess),
            "--trellis-bess", str(trellis_bess), "--schemes", "ess,bess",
            f"--powers={POWERS}", "--sps", str(SPS), "--step-km", str(step_km),
            "--seed", str(seed), "--out", str(out)]


def build_argv(out, band=None):
    argv = ["trellis", "build", "--n", str(N), "--alphabet", ALPHABET,
            "--bits", str(BITS), "--out", str(out)]
    return argv + ["--band", band] if band else argv
