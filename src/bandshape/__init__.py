"""Sphere-shaping codec with band-restricted trellises and a desk-scale
single-span fiber simulator."""

from .codec import (
    decode_index,
    deshape,
    encode_index,
    shape,
    shape_stream,
)
from .fibersim import (
    FiberParams,
    LinkParams,
    Waveform,
    cd_compensate,
    demodulate,
    edfa,
    effective_snr,
    modulate,
    rrc_taps,
    run_link,
    run_sweep,
    ssfm_span,
)
from .metrics import (
    BandOperatingPoint,
    SampledMetrics,
    SequenceEnergyStats,
    ShapingMetrics,
    compare_db,
    compare_trellises,
    exact_metrics,
    find_band_operating_point,
    sampled_metrics,
    sequence_energy_stats,
    windowed_energy_deviation,
)
from .pasmap import SymbolStream, map_ask, map_qam, normalize, random_sign_bits
from .trellis import (
    Alphabet,
    BandParams,
    Trellis,
    TrellisParams,
    build_band_trellis,
    build_full_trellis,
    deserialize,
    load_trellis,
    max_shaping_bits,
    min_emax_for_bits,
    save_trellis,
    serialize,
)

__version__ = "0.1.0"
