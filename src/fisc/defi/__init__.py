"""DeFi models: `pool`, a constant-product liquidity pool."""
