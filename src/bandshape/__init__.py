"""Sphere-shaping codec with band-restricted trellises and a desk-scale
single-span fiber simulator."""
